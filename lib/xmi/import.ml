exception Import_error of string

module N = Xml_parser.Name
module L = Xml_parser

let error fmt = Format.kasprintf (fun s -> raise (Import_error s)) fmt

(* ---- attributes of the current start tag ---------------------------------- *)

let require lx name =
  let i = L.find_attr lx name in
  if i < 0 then error "missing attribute %s on <%s>" name (L.tag lx) else i

let string_of lx name = L.attr_value lx (require lx name)

(* [parse s start stop] over the value of attribute [i]: in place when the
   value holds no reference (ids, id lists and the counter are read so),
   over its decoded copy otherwise. *)
let with_value lx i parse =
  if L.attr_plain lx i then parse (L.source lx) (L.attr_start lx i) (L.attr_stop lx i)
  else
    let v = L.attr_value lx i in
    parse v 0 (String.length v)

let parse_id s start stop = Mof.Id.of_substring s ~pos:start ~len:(stop - start)

let id_of lx name =
  let i = require lx name in
  match with_value lx i parse_id with
  | Some id -> id
  | None -> error "malformed id %s in attribute %s" (L.attr_value lx i) name

let rec space_or_stop s i stop = if i = stop || s.[i] = ' ' then i else space_or_stop s (i + 1) stop

(* A space-separated id list; [""] is the empty list, and every other
   segment, empty ones included, must be an id. *)
let rec ids_from name s i stop acc =
  let j = space_or_stop s i stop in
  match parse_id s i j with
  | None -> error "malformed id %s in attribute %s" (String.sub s i (j - i)) name
  | Some id ->
      if j = stop then List.rev (id :: acc) else ids_from name s (j + 1) stop (id :: acc)

let ids_of lx name =
  let i = require lx name in
  if L.attr_plain lx i then begin
    let start = L.attr_start lx i and stop = L.attr_stop lx i in
    if start = stop then [] else ids_from name (L.source lx) start stop []
  end
  else
    let v = L.attr_value lx i in
    if v = "" then [] else ids_from name v 0 (String.length v) []

let bool_of lx name =
  let i = require lx name in
  if L.attr_is lx i "true" then true
  else if L.attr_is lx i "false" then false
  else error "malformed boolean %s in attribute %s" (L.attr_value lx i) name

let dtype_of lx name =
  let raw = string_of lx name in
  match Dtype.of_string raw with
  | Some dt -> dt
  | None -> error "malformed datatype %s" raw

let mult_of lx name =
  let raw = string_of lx name in
  match Mof.Kind.mult_of_string raw with
  | Some mult -> mult
  | None -> error "malformed multiplicity %s" raw

let visibility_of lx =
  let raw = string_of lx N.visibility in
  match Mof.Kind.visibility_of_string raw with
  | Some v -> v
  | None -> error "malformed visibility %s" raw

let assoc_end_of lx =
  let end_name = string_of lx N.name in
  let end_type =
    match Mof.Id.of_string (string_of lx N.type_) with
    | Some id -> id
    | None -> error "malformed association end type"
  in
  let end_mult = mult_of lx N.multiplicity in
  let end_navigable = bool_of lx N.navigable in
  let end_aggregation =
    match Mof.Kind.aggregation_of_string (string_of lx N.aggregation) with
    | Some a -> a
    | None -> error "malformed aggregation"
  in
  { Mof.Kind.end_name; end_type; end_mult; end_navigable; end_aggregation }

let rec decimal_from s i stop n =
  if i = stop then Some n
  else
    match s.[i] with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if n > (max_int - d) / 10 then None else decimal_from s (i + 1) stop ((n * 10) + d)
    | _ -> None

(* Decimal digits only: no sign, underscore or radix prefix. *)
let decimal s start stop = if start = stop then None else decimal_from s start stop 0

let next_of lx =
  match with_value lx (require lx N.next) decimal with
  | Some n -> n
  | None -> error "malformed next counter"

(* ---- elements --------------------------------------------------------------- *)

(* An element being read: what its kind needs from its children, gathered
   (reversed) as they are read. *)
type frame = {
  tag : string;
  self : Mof.Id.t option;
  mutable owned : Mof.Id.t list;
  mutable attributes : Mof.Id.t list;
  mutable operations : Mof.Id.t list;
  mutable params : Mof.Id.t list;
  mutable ends : Mof.Kind.assoc_end list;
  mutable literals : string list;
  mutable body : string list option;  (** the first [Constraint.body] *)
  mutable stereotypes : string list;
  mutable tags : (string * string) list;
}

(* Reads the element's own attributes at its start tag; the result builds
   the kind once the children are done. *)
let kind_of lx tag =
  let rev = List.rev in
  if N.equal tag N.package then fun (c : frame) -> Mof.Kind.Package { owned = rev c.owned }
  else if N.equal tag N.class_ then begin
    let is_abstract = bool_of lx N.is_abstract in
    let supers = ids_of lx N.supers in
    let realizes = ids_of lx N.realizes in
    fun (c : frame) ->
      Mof.Kind.Class
        {
          is_abstract;
          attributes = rev c.attributes;
          operations = rev c.operations;
          supers;
          realizes;
        }
  end
  else if N.equal tag N.interface then fun (c : frame) ->
    Mof.Kind.Interface { operations = rev c.operations }
  else if N.equal tag N.attribute then begin
    let attr_type = dtype_of lx N.type_ in
    let attr_visibility = visibility_of lx in
    let attr_mult = mult_of lx N.multiplicity in
    let is_derived = bool_of lx N.is_derived in
    let is_static = bool_of lx N.is_static in
    let initial = L.find_attr lx N.initial in
    let initial_value = if initial < 0 then None else Some (L.attr_value lx initial) in
    let kind =
      Mof.Kind.Attribute
        { attr_type; attr_visibility; attr_mult; is_derived; is_static; initial_value }
    in
    fun _ -> kind
  end
  else if N.equal tag N.operation then begin
    let op_visibility = visibility_of lx in
    let is_query = bool_of lx N.is_query in
    let is_abstract_op = bool_of lx N.is_abstract in
    let is_static_op = bool_of lx N.is_static in
    fun (c : frame) ->
      Mof.Kind.Operation
        { params = rev c.params; op_visibility; is_query; is_abstract_op; is_static_op }
  end
  else if N.equal tag N.parameter then begin
    let param_type = dtype_of lx N.type_ in
    let direction =
      match Mof.Kind.direction_of_string (string_of lx N.direction) with
      | Some d -> d
      | None -> error "malformed direction"
    in
    let kind = Mof.Kind.Parameter { param_type; direction } in
    fun _ -> kind
  end
  else if N.equal tag N.association then fun (c : frame) ->
    Mof.Kind.Association { ends = rev c.ends }
  else if N.equal tag N.generalization then begin
    let child = id_of lx N.child in
    let parent = id_of lx N.parent in
    let kind = Mof.Kind.Generalization { child; parent } in
    fun _ -> kind
  end
  else if N.equal tag N.dependency then begin
    let client = id_of lx N.client in
    let supplier = id_of lx N.supplier in
    let kind = Mof.Kind.Dependency { client; supplier } in
    fun _ -> kind
  end
  else if N.equal tag N.constraint_ then begin
    let constrained = ids_of lx N.constrained in
    let language = string_of lx N.language in
    fun (c : frame) ->
      let body = match c.body with Some segments -> String.concat "" (rev segments) | None -> "" in
      Mof.Kind.Constraint_ { constrained; body; language }
  end
  else if N.equal tag N.enumeration then fun (c : frame) ->
    Mof.Kind.Enumeration { literals = rev c.literals }
  else error "unknown element tag <%s>" tag

(* The direct text and CDATA segments of a [Constraint.body], reversed. *)
let rec body_text lx acc =
  match L.next lx with
  | L.Data -> body_text lx (L.text lx :: acc)
  | L.Open ->
      L.skip lx;
      body_text lx acc
  | L.Close | L.Eof -> acc

(* Elements in document order, each stored once its children are done. *)
type sink = { mutable slots : Mof.Element.t array; mutable count : int }

let reserve sink =
  let n = sink.count in
  if n = Array.length sink.slots then
    sink.slots <- Array.append sink.slots (Array.make n sink.slots.(0));
  sink.count <- n + 1;
  n

(* At an owned element's start tag: reads it through its end tag, storing
   it and its owned descendants, and returns its id. *)
let rec element sink lx ~owner =
  let tag = L.tag lx in
  let id = id_of lx N.xmi_id in
  let name = string_of lx N.name in
  let finish = kind_of lx tag in
  let slot = reserve sink in
  let f =
    {
      tag;
      self = Some id;
      owned = [];
      attributes = [];
      operations = [];
      params = [];
      ends = [];
      literals = [];
      body = None;
      stereotypes = [];
      tags = [];
    }
  in
  children sink lx f;
  sink.slots.(slot) <-
    Mof.Element.make ~stereotypes:(List.rev f.stereotypes) ~tags:(List.rev f.tags) ~id
      ~name ~owner (finish f);
  id

and children sink lx f =
  match L.next lx with
  | L.Close | L.Eof -> ()
  | L.Data -> children sink lx f
  | L.Open ->
      let t = L.tag lx in
      if N.equal t N.stereotype then begin
        f.stereotypes <- string_of lx N.name :: f.stereotypes;
        L.skip lx
      end
      else if N.equal t N.tagged_value then begin
        let key = string_of lx N.tag in
        f.tags <- (key, string_of lx N.value) :: f.tags;
        L.skip lx
      end
      else if N.equal t N.association_end then begin
        if N.equal f.tag N.association then f.ends <- assoc_end_of lx :: f.ends;
        L.skip lx
      end
      else if N.equal t N.literal then begin
        if N.equal f.tag N.enumeration then f.literals <- string_of lx N.name :: f.literals;
        L.skip lx
      end
      else if N.equal t N.constraint_body then begin
        if N.equal f.tag N.constraint_ && Option.is_none f.body then
          f.body <- Some (body_text lx [])
        else L.skip lx
      end
      else begin
        let child = element sink lx ~owner:f.self in
        if N.equal f.tag N.package then f.owned <- child :: f.owned;
        if N.equal t N.attribute then f.attributes <- child :: f.attributes
        else if N.equal t N.operation then f.operations <- child :: f.operations
        else if N.equal t N.parameter then f.params <- child :: f.params
      end;
      children sink lx f

(* ---- the document ------------------------------------------------------------- *)

type model = { root : Mof.Id.t; next : int; roots : int }

(* At [<Model>]: walks the first element child, counts the others. *)
let model sink lx =
  let root = id_of lx N.root in
  let next = next_of lx in
  let rec roots n =
    match L.next lx with
    | L.Open ->
        if n = 0 then ignore (element sink lx ~owner:None : Mof.Id.t) else L.skip lx;
        roots (n + 1)
    | L.Data -> roots n
    | L.Close | L.Eof -> n
  in
  let roots = roots 0 in
  { root; next; roots }

(* The children of an element, handing the first one tagged [wanted] to
   [read] and skipping the rest; [Some] result once found. *)
let first_child lx wanted read =
  let rec go found =
    match L.next lx with
    | L.Open when Option.is_none found && N.equal (L.tag lx) wanted -> go (Some (read ()))
    | L.Open ->
        L.skip lx;
        go found
    | L.Data -> go found
    | L.Close | L.Eof -> found
  in
  go None

let of_lexer lx =
  let sink =
    let placeholder =
      Mof.Element.make ~id:(Mof.Id.of_int 0) ~name:"" ~owner:None
        (Mof.Kind.Package { owned = [] })
    in
    { slots = Array.make (1 + (String.length (L.source lx) / 128)) placeholder; count = 0 }
  in
  ignore (L.next lx : L.token);
  let content =
    if N.equal (L.tag lx) N.xmi then
      Some
        (first_child lx N.xmi_content (fun () ->
             first_child lx N.model (fun () -> model sink lx)))
    else begin
      L.skip lx;
      None
    end
  in
  (* the whole document is read before an envelope error is raised, so XML
     defects anywhere take precedence over them *)
  ignore (L.next lx : L.token);
  let m =
    match content with
    | None -> error "root element is not <XMI>"
    | Some None -> error "missing <XMI.content>"
    | Some (Some None) -> error "missing <Model>"
    | Some (Some (Some m)) -> m
  in
  if m.roots <> 1 then error "expected exactly one root element, found %d" m.roots;
  (* reversed document order, the list the tree walk used to build *)
  let rec elements i acc =
    if i = sink.count then acc else elements (i + 1) (sink.slots.(i) :: acc)
  in
  match Mof.Model.of_elements ~root:m.root ~next:m.next (elements 0 []) with
  | exception Invalid_argument msg -> error "%s" msg
  | model -> (
      (* every builder edit assumes a top-level package at the root *)
      let r = Mof.Model.find_exn model m.root in
      match (r.Mof.Element.kind, r.Mof.Element.owner) with
      | Mof.Kind.Package _, None -> model
      | _, Some _ -> error "root %s is not a top-level element" (Mof.Id.to_string m.root)
      | _, None ->
          error "root %s is a %s, not a Package" (Mof.Id.to_string m.root)
            (Mof.Element.metaclass r))

let from_string s =
  Obs.span ~cat:"xmi" "xmi.import"
    ~args:[ ("bytes", Obs.Event.V_int (String.length s)) ]
  @@ fun () ->
  Obs.incr "xmi.imports" [];
  of_lexer (L.lexer s)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      from_string (really_input_string ic len))
