(** Binary snapshots of a Hexastore.

    The paper's future work (§7) plans "a fully operational disk-based
    Hexastore"; this module is the persistence half of that: a compact
    binary image of the store — the dictionary plus the triple set,
    delta-varint encoded in (s, p, o) order — from which loading rebuilds
    all six indices through the bulk path.

    Format (version 2; version-1 files, which lack the repr byte, still
    load as raw stores):
    {v
magic   "HEXSNAP2"  ("HEXSNAP1" for version 1)
repr    one byte: 0 raw, 1 packed (absent in version 1; 2, written by
        the retired delta_varint codec, loads as packed)
dict    varint count, then per id: varint length + N-Triples spelling
triples varint count, then per triple (sorted s,p,o):
        varint Δs, varint Δp (absolute when Δs>0), varint Δo
        (absolute when Δs>0 or Δp>0)
crc     FNV-1a 64-bit of everything after the magic, big-endian
    v}

    Ids are positional: the dictionary section re-encodes terms in id
    order, so a loaded store assigns identical ids. *)

exception Corrupt of string
(** Bad magic, truncation, checksum mismatch, or undecodable content. *)

val save : Hexastore.t -> string -> unit
(** Write the store to a file (atomically: a temp file is renamed into
    place). *)

val load : string -> Hexastore.t
(** Rebuild a store from a snapshot.
    @raise Corrupt on any malformed input.
    @raise Sys_error when the file cannot be read. *)

val save_channel : Hexastore.t -> out_channel -> unit

val load_channel : in_channel -> Hexastore.t

val save_delta : Delta.t -> string -> unit
(** Flush-on-save: drains the delta's pending buffers into its base,
    then writes the base image.  A loaded-then-re-saved snapshot is
    byte-identical. *)

val load_delta : ?insert_threshold:int -> ?delete_threshold:int -> string -> Delta.t
(** {!load} the base image and front it with an empty delta. *)
