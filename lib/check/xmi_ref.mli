(** Reference semantics for the streaming XMI paths: the DOM round trip
    they replaced. The [xmi] oracle checks {!Xmi.Import.from_string}
    against {!of_string} and {!Xmi.Export.to_string} against {!to_string}. *)

val print : ?indent:int -> ?declaration:bool -> Xmi.Xml.t -> string
(** Pretty-prints a document. [indent] (default 2) controls nesting;
    [declaration] (default true) prepends the [<?xml …?>] prolog. Elements
    with only text children print inline so that round-tripping preserves
    their text exactly. *)

val of_xml : Xmi.Xml.t -> Mof.Model.t
(** Reconstructs a model from a parsed XMI document.
    @raise Xmi.Import.Import_error when the document is not valid XMI. *)

val to_xml : Mof.Model.t -> Xmi.Xml.t
(** The XMI document of a model. *)

val of_string : string -> Mof.Model.t
(** [of_xml (Xmi.Xml_parser.parse s)]. *)

val to_string : Mof.Model.t -> string
(** [print (to_xml m)]. *)
