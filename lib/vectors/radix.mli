(** Stable linear-time sorting on dense non-negative integer keys.

    The one sorting kernel behind the store's build from empty: the
    triple sorts of {!Hexa.Ordering.sort_triples} and the re-keying of
    a built ordering into its twin.  An LSD counting sort whose digit
    width follows the batch length, so its count array is at most about
    as long as the batch — never as long as the key range — and a key
    below [2^(w·d)] takes [d] passes; within that many passes the
    width shrinks to what the largest key needs. *)

val sort : int array -> int array -> int array
(** [sort keys perm] is [perm]'s elements (indices into [keys]) stably
    re-ordered by ascending [keys.(e)]: elements with equal keys keep
    their order in [perm].  Chaining sorts from the least significant
    key to the most significant one therefore sorts lexicographically.
    [perm] serves as scratch space and must not be used afterwards.
    @raise Invalid_argument if a key reached through [perm] is negative. *)
