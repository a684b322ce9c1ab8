(** Sorted columnar join indexes over a {!Bagcq_relational.Structure.t}.

    Every relation is stored twice: a row store of tuples sorted by
    {!Tuple.compare}, and a column store of {e interned codes} — each value
    replaced by its rank in the structure's sorted active domain, so code
    order is {!Value.compare} order and every column operation (prefix
    ranges, galloping seeks, membership) is integer comparison on dense
    arrays.  Three consumers share the result: the compiled backtracking
    kernel ({!Plan}, {!Solver}) keeps its scan / per-position-probe /
    membership interface; the leapfrog kernel ({!Wcoj}) asks for {!view}s —
    the relation re-sorted under an attribute order, exposed as per-level
    code arrays it can intersect with binary search; and the join-tree DP
    ({!Jtree}) scans the column store (the identity {!view}) and probes
    views that put the probed position first, comparing codes only.

    The index is memoised on the structure itself (through
    {!Structure.memo_store}), so it is built at most once per structure no
    matter how many queries are evaluated against it — the process-wide
    [hom_index_builds] counter counts actual builds, which is how the
    server's dedup regression test tells a memo hit from a rebuild.
    Structures are immutable, hence so is the index; the lazily-built view
    table inside each relation is the one mutable part and is guarded by a
    mutex, because structures (and their memoised index) are shared across
    worker domains. *)

open Bagcq_relational

type t
(** The full index of one structure. *)

type sym_index
(** The index of a single relation symbol. *)

val get : Structure.t -> t
(** Fetch the memoised index, building it on first use. *)

val build : Structure.t -> t
(** Build without consulting or filling the memo slot (for tests).  Bumps
    [hom_index_builds]. *)

val sym_index : t -> Symbol.t -> sym_index
(** Total: a symbol with no atoms yields an empty index. *)

val domain : t -> Value.t array
(** The active domain, in {!Value.compare} order.  Codes are indexes into
    this array. *)

val code : t -> Value.t -> int option
(** The interned code of a domain element; [None] for values outside the
    active domain (a constant interpreted as a fresh element can never
    match a tuple, so callers short-circuit to zero). *)

(** {2 Codes that survive writes}

    The codes above are ranks, so a write that brings in a new value
    shifts them.  State kept across writes (the store's materialised
    join-tree tables) codes values through an interner instead: it hands
    out [0, 1, 2, …] in order of first sight and never forgets a value,
    so a code stays valid for the interner's lifetime.  Not synchronised:
    guard it like the state that owns it. *)

type interner

val interner : unit -> interner
(** An empty interner. *)

val intern : interner -> Value.t -> int
(** The value's code, assigning the next one on first sight. *)

val interned : interner -> int
(** How many codes have been handed out: every code is below it. *)

val all : sym_index -> Tuple.t array
(** Every tuple of the symbol, in {!Tuple.compare} order. *)

val candidates : sym_index -> pos:int -> Value.t -> Tuple.t array
(** The tuples holding the given element at position [pos], in
    {!Tuple.compare} order.  Shared — do not mutate. *)

val mem : sym_index -> Tuple.t -> bool

val view : sym_index -> int array -> int array array
(** [view si order] is the relation re-sorted lexicographically under the
    attribute order [order] (a permutation of the symbol's positions),
    returned as per-level code columns: [(view si order).(l).(r)] is the
    code at position [order.(l)] of the [r]-th tuple in that sort.  Rows
    sharing a code prefix are contiguous, so a trie iterator is a stack of
    [(lo, hi)] ranges and [seek] is a gallop within the current range.
    The identity order returns the column store itself, which is already
    in that sort; other orders are memoised per [(relation, order)].
    Shared — do not mutate. *)
