(** Sorted columnar join indexes over a {!Bagcq_relational.Structure.t}.

    Every relation is stored once, as columns of {e interned codes}: each
    value is replaced by its rank in the structure's sorted active domain,
    so code order is {!Value.compare} order, the rows follow
    {!Tuple.compare}, and every column operation (prefix ranges, galloping
    seeks, membership) is integer comparison on dense arrays.  Every
    kernel reads the relation through a {!view}: the rows re-sorted under
    an attribute order, as per-level code arrays.  The leapfrog kernel
    ({!Wcoj}) intersects the levels of its views by galloping; the
    join-tree DP ({!Jtree}) and the backtracking kernel ({!Solver}) scan
    the identity view, and probe a view that puts the probed position
    first ({!probe_first}), where the rows holding one code are the
    {!run} that binary search finds.

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
(** Fetch the memoised index, building it on first use (which bumps
    [hom_index_builds]). *)

val sym_index : t -> Symbol.t -> sym_index
(** Total: a symbol with no atoms yields an empty index. *)

val rows : sym_index -> int
(** How many tuples the symbol has: the length of every column. *)

val domain : t -> Value.t array
(** The active domain, in {!Value.compare} order.  Codes are indexes into
    this array. *)

val constants : Structure.t -> string array -> (t * int array) option
(** [constants d names] resolves a kernel's constants: [None] when some
    name has no interpretation in [d], decided before any index is
    fetched, since no homomorphism can then exist; otherwise the index of
    [d] ({!get}) and each name's code.  The domain folds in every
    constant's interpretation, so an interpreted constant always has a
    code, even when no tuple holds it. *)

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

(** {2 Views and runs} *)

val view : sym_index -> int array -> int array array
(** [view si order] is the relation re-sorted lexicographically under the
    attribute order [order] (a permutation of the symbol's positions),
    returned as per-level code columns: [(view si order).(l).(r)] is the
    code at position [order.(l)] of the [r]-th tuple in that sort.  Rows
    sharing a code prefix are contiguous, so a trie iterator is a stack of
    [(lo, hi)] ranges.  The identity order returns the code columns
    themselves, which are already in that sort; other orders are memoised
    per [(relation, order)].  Shared — do not mutate. *)

val probe_first : int -> int -> int array
(** [probe_first arity p] is the attribute order with position [p] first
    and the others after it in position order.  In its view the rows
    holding a code at [p] are one run, in {!Tuple.compare} order. *)

val run : int array -> int -> int -> int -> int * int
(** [run col lo hi c] is the run [(lo', hi')] of the rows of [\[lo, hi)]
    whose code in [col] is [c], found by binary search; [col] must be
    sorted over the range.  Empty ([lo' = hi']) when no row holds [c]. *)
