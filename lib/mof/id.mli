(** Opaque identifiers for model elements.

    Every element stored in a {!Model.t} carries a unique identifier. Ids are
    allocated by the model store itself ({!Model.fresh_id}); they are stable
    across transformations, which makes them suitable as keys in traces,
    diffs, and XMI serializations. *)

type t
(** The type of element identifiers. *)

val of_int : int -> t
(** [of_int n] is the identifier with ordinal [n]. Intended for the model
    store and the XMI importer; user code should obtain ids from
    {!Model.fresh_id} or from queries. *)

val to_int : t -> int
(** [to_int id] is the ordinal backing [id]. *)

val to_string : t -> string
(** [to_string id] renders [id] as ["e<n>"], the form used in XMI files. *)

val of_string : string -> t option
(** [of_string s] parses the ["e<n>"] form produced by {!to_string}, and
    only that form: [of_string s = Some id] iff [to_string id = s]. Leading
    zeros, signs, underscores, radix prefixes and out-of-range ordinals are
    rejected, so two spellings never name one id. *)

val of_substring : string -> pos:int -> len:int -> t option
(** [of_substring s ~pos ~len] is [of_string (String.sub s pos len)]
    without the copy. *)

val equal : t -> t -> bool
(** Structural equality on identifiers. *)

val compare : t -> t -> int
(** Total order on identifiers, by ordinal. *)

val hash : t -> int
(** Hash compatible with {!equal}. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer, same output as {!to_string}. *)

module Map : Map.S with type key = t
(** Maps keyed by identifiers. *)

module Set : Set.S with type elt = t
(** Sets of identifiers. *)
