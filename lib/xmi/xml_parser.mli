(** XML parser for the interchange subset: prolog, comments, CDATA,
    elements, attributes (single or double quoted), character data, and the
    five predefined entities plus character references — [&#] followed by
    decimal digits, or by [x] and hex digits; no sign, underscore or other
    radix prefix. References are resolved only in values that hold an
    ampersand.

    Not supported (not needed for XMI interchange): DTDs, processing
    instructions other than the prolog, namespace resolution.

    All XML syntax lives in one pull {!lexer}; {!parse} is a fold over it
    that builds the {!Xml.t} tree, and {!Import} reads it directly. *)

exception Xml_error of string * int
(** [Xml_error (message, offset)]. *)


(** {1 Pull lexer} *)

type token =
  | Open  (** a start tag; [<t/>] yields [Open] then [Close] *)
  | Close  (** the end tag of the innermost open element *)
  | Data  (** a text segment that is not whitespace-only, or a CDATA section *)
  | Eof  (** the end of the document, after the root element closed *)

type lexer

val lexer : string -> lexer
(** A lexer at the start of a document. *)

val next : lexer -> token
(** Advances to the next token. Comments and processing instructions are
    skipped, whitespace-only text segments are dropped, closing tags must
    match (inside subtrees the caller skips, too), the document holds
    exactly one root element, and references are checked even in values
    nobody reads.
    @raise Xml_error on malformed input. *)

val skip : lexer -> unit
(** After [Open]: consumes the element's subtree through its [Close]. *)

val tag : lexer -> string
(** The tag of the current [Open] or [Close]. Tags in {!Name} come back as
    those very constants, not as copies. *)

val find_attr : lexer -> string -> int
(** Index of the first attribute of the current start tag with that name,
    or [-1]. Attribute names are interned like tags. *)

val attr_value : lexer -> int -> string
(** The value with its references resolved. *)

val attr_is : lexer -> int -> string -> bool
(** [attr_is lx i s] is [String.equal (attr_value lx i) s], in place. *)

val attr_plain : lexer -> int -> bool
(** The value holds no reference: {!source} between {!attr_start} and
    {!attr_stop} is the value itself. *)

val attr_start : lexer -> int -> int
val attr_stop : lexer -> int -> int
val source : lexer -> string

val text : lexer -> string
(** The current [Data] segment, references resolved (CDATA verbatim). *)

(** The XMI vocabulary. {!tag} and attribute names are these constants for
    names spelled like them; compare against them by name. *)
module Name : sig
  val xmi : string
  val xmi_content : string
  val xmi_id : string
  val model : string
  val package : string
  val class_ : string
  val interface : string
  val attribute : string
  val operation : string
  val parameter : string
  val association : string
  val association_end : string
  val generalization : string
  val dependency : string
  val constraint_ : string
  val constraint_body : string
  val enumeration : string
  val literal : string
  val stereotype : string
  val tagged_value : string
  val name : string
  val root : string
  val next : string
  val is_abstract : string
  val supers : string
  val realizes : string
  val type_ : string
  val visibility : string
  val multiplicity : string
  val is_derived : string
  val is_static : string
  val initial : string
  val is_query : string
  val direction : string
  val navigable : string
  val aggregation : string
  val child : string
  val parent : string
  val client : string
  val supplier : string
  val language : string
  val constrained : string
  val tag : string
  val value : string

  val equal : string -> string -> bool
  (** [String.equal], with a physical-equality fast path for interned
      names. *)
end

(** {1 Tree} *)

val parse : string -> Xml.t
(** Parses a document and returns its root element. Whitespace-only text
    between elements is dropped; other text is kept verbatim.
    @raise Xml_error on malformed input. *)
