module Violation = Violation
module Invariant = Invariant
module Model = Model
module Diff = Diff
module Reference = Reference
module Concurrent = Concurrent
module Lexer = Lexer
module Mutability = Mutability
module Lint = Lint

let store = Invariant.store
let delta = Invariant.delta
let debug = Hexa.Debug.enabled
