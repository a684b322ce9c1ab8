(** Boolean conjunctive queries, possibly with inequalities and constants.

    All queries are boolean and all variables are implicitly existentially
    quantified (Section 2.1).  An inequality [x ≠ x'] is an atomic formula
    over the virtual relation interpreted as [V_D×V_D ∖ diag]; a variable
    occurring only in inequalities still ranges over the whole active
    domain. *)

open Bagcq_relational

type t

val make : ?neqs:(Term.t * Term.t) list -> Atom.t list -> t
(** Duplicate atoms are kept once (a CQ is a set of atoms); a syntactically
    reflexive inequality [t ≠ t] raises [Invalid_argument] (it is
    unsatisfiable by construction and always a bug in a reduction). *)

val true_query : t
(** The empty conjunction; [true_query (D) = 1] for every [D]. *)

val atoms : t -> Atom.t list
val neqs : t -> (Term.t * Term.t) list

val vars : t -> string list
(** [Var(ψ)]: all variables, sorted, each once — including variables that
    occur only in inequalities. *)

val constants : t -> string list
val schema : t -> Schema.t

val num_atoms : t -> int
val num_vars : t -> int
val num_neqs : t -> int
val has_neqs : t -> bool

val strip_neqs : t -> t
(** [ψ'] — ψ with all inequalities removed (Lemma 23). *)

val conj : t -> t -> t
(** [ρ ∧ ρ']: shared-variable conjunction. *)

val rename_vars : (string -> string) -> t -> t

val rename_apart : avoid:t -> t -> t
(** Renames the variables of the second query so that they are disjoint
    from [Var(avoid)] (fresh names keep their stem, suffixed with [~n]). *)

val dconj : t -> t -> t
(** [ρ ∧̄ ρ']: disjoint conjunction — the variables of [ρ'] are first
    renamed apart from [ρ] (Section 2.2), so that
    [(ρ ∧̄ ρ')(D) = ρ(D)·ρ'(D)] (Lemma 1). *)

val power : t -> int -> t
(** [θ↑k] (Definition 2).  [power θ 0 = true_query].
    Raises [Invalid_argument] if [k < 0]. *)

val canonical_structure : t -> Structure.t
(** The canonical (frozen) structure of the query: variables become the
    elements [Value.of_var x], constants become schema constants with their
    canonical interpretation.  Inequalities do not contribute atoms. *)

val of_structure : Structure.t -> t
(** The canonical query of a structure: every element becomes a variable —
    except interpreted constants, which stay constants.  Inverse of
    {!canonical_structure} on structures whose elements are frozen
    variables. *)

val equal : t -> t -> bool
(** Syntactic equality (same atom set, same inequality set) up to the order
    of atoms and the orientation of inequalities — not isomorphism. *)

val compare : t -> t -> int

val components : t -> t list
(** Connected components: two atoms (or inequalities) are connected when
    they share a variable.  Constants do not connect components (their
    images are pinned, so homomorphism counts factorise across the split —
    this is what makes the factorised evaluator sound).  Atoms without
    variables are singleton components.  The count of a query is the
    product of the counts of its components. *)

val constant_slots : t -> string array
(** The query's constants as plan parameters: each distinct constant once,
    by first occurrence — atoms in order, each atom's arguments left to
    right, then the inequalities in order, left side first.  A compiled
    plan's parameter vector is indexed in this order, and two queries
    that differ only in their constants number them alike. *)

val pp : Format.formatter -> t -> unit
(** The boxed form: atoms and inequalities joined by [" & "], with a
    break hint after each [&], so a long query wraps at the formatter's
    margin.  [true] for the empty conjunction. *)

val to_string : t -> string
(** {!pp}'s text on one flat line, every break a single space, built in a
    {!Buffer.t} with no Format boxes.  This one text keys the server's
    result memo and the store's registrations: it is injective on the
    normalised query (atoms sorted, inequalities oriented). *)

val add_flat : ?term:(Buffer.t -> Term.t -> unit) -> Buffer.t -> t -> unit
(** Appends {!to_string}'s text to the buffer, printing each term with
    [term] (default: a variable as its name, a constant as ['c']).  The
    planner prints a component's shape through it, each constant as its
    slot. *)
