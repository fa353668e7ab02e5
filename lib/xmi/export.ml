(* The document is written straight into one buffer, in the layout of a
   two-space-indented pretty-printer: one element per line, [<t/>] for an
   element without children, and [Constraint.body] inline. *)

(* The helpers are closed top-level functions: a closure built per value
   or per element would be allocated thousands of times per document. *)

let rec needs_escape ~in_attr s i =
  if i = String.length s then false
  else
    match String.unsafe_get s i with
    | '&' | '<' | '>' -> true
    | ('"' | '\'') when in_attr -> true
    | _ -> needs_escape ~in_attr s (i + 1)

let add_escaped buf ~in_attr s =
  if not (needs_escape ~in_attr s 0) then Buffer.add_string buf s
  else
    String.iter
      (function
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' when in_attr -> Buffer.add_string buf "&quot;"
        | '\'' when in_attr -> Buffer.add_string buf "&apos;"
        | c -> Buffer.add_char buf c)
      s

let spaces = String.make 64 ' '

let rec pad buf depth =
  if 2 * depth <= String.length spaces then Buffer.add_substring buf spaces 0 (2 * depth)
  else begin
    Buffer.add_string buf spaces;
    pad buf (depth - (String.length spaces / 2))
  end

(* A space, the name, an equals sign and the opening quote; the caller
   writes the value and the closing quote. *)
let open_attr buf name =
  Buffer.add_char buf ' ';
  Buffer.add_string buf name;
  Buffer.add_string buf "=\""

let add_attr buf name value =
  open_attr buf name;
  add_escaped buf ~in_attr:true value;
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Ids, id lists and booleans never need escaping. *)
let add_id buf id =
  let n = Mof.Id.to_int id in
  if n >= 0 then begin
    Buffer.add_char buf 'e';
    add_digits buf n
  end
  else Buffer.add_string buf (Mof.Id.to_string id)

let rec add_ids buf = function
  | [] -> ()
  | [ id ] -> add_id buf id
  | id :: rest ->
      add_id buf id;
      Buffer.add_char buf ' ';
      add_ids buf rest

let id_attr buf name id =
  open_attr buf name;
  add_id buf id;
  Buffer.add_char buf '"'

let ids_attr buf name ids =
  open_attr buf name;
  add_ids buf ids;
  Buffer.add_char buf '"'

let bool_attr buf name b =
  open_attr buf name;
  Buffer.add_string buf (if b then "true" else "false");
  Buffer.add_char buf '"'

let open_tag buf depth tag (e : Mof.Element.t) =
  pad buf depth;
  Buffer.add_char buf '<';
  Buffer.add_string buf tag;
  id_attr buf "xmi.id" e.id;
  add_attr buf "name" e.name

let close_tag buf depth tag =
  pad buf depth;
  Buffer.add_string buf "</";
  Buffer.add_string buf tag;
  Buffer.add_string buf ">\n"

let rec add_stereotypes buf depth = function
  | [] -> ()
  | s :: rest ->
      pad buf depth;
      Buffer.add_string buf "<Stereotype";
      add_attr buf "name" s;
      Buffer.add_string buf "/>\n";
      add_stereotypes buf depth rest

let rec add_tags buf depth = function
  | [] -> ()
  | (k, v) :: rest ->
      pad buf depth;
      Buffer.add_string buf "<TaggedValue";
      add_attr buf "tag" k;
      add_attr buf "value" v;
      Buffer.add_string buf "/>\n";
      add_tags buf depth rest

(* Ends the start tag. An element with no stereotype, tagged value or
   [nested] child is written [<t .../>] (false); otherwise its stereotypes
   and tagged values follow, and the caller writes the rest and the end
   tag (true). *)
let children_follow buf depth (e : Mof.Element.t) ~nested =
  if e.stereotypes = [] && e.tags = [] && not nested then begin
    Buffer.add_string buf "/>\n";
    false
  end
  else begin
    Buffer.add_string buf ">\n";
    add_stereotypes buf (depth + 1) e.stereotypes;
    add_tags buf (depth + 1) e.tags;
    true
  end

(* An element whose only children are its stereotypes and tagged values. *)
let leaf buf depth tag e =
  if children_follow buf depth e ~nested:false then close_tag buf depth tag

let add_end buf depth (en : Mof.Kind.assoc_end) =
  pad buf depth;
  Buffer.add_string buf "<AssociationEnd";
  add_attr buf "name" en.end_name;
  id_attr buf "type" en.end_type;
  add_attr buf "multiplicity" (Mof.Kind.mult_to_string en.end_mult);
  bool_attr buf "navigable" en.end_navigable;
  add_attr buf "aggregation" (Mof.Kind.aggregation_to_string en.end_aggregation);
  Buffer.add_string buf "/>\n"

let add_literal buf depth lit =
  pad buf depth;
  Buffer.add_string buf "<Literal";
  add_attr buf "name" lit;
  Buffer.add_string buf "/>\n"

let rec element buf m depth (e : Mof.Element.t) =
  match e.kind with
  | Mof.Kind.Package { owned } ->
      open_tag buf depth "Package" e;
      if children_follow buf depth e ~nested:(owned <> []) then begin
        add_owned buf m (depth + 1) owned;
        close_tag buf depth "Package"
      end
  | Mof.Kind.Class c ->
      open_tag buf depth "Class" e;
      bool_attr buf "isAbstract" c.is_abstract;
      ids_attr buf "supers" c.supers;
      ids_attr buf "realizes" c.realizes;
      if children_follow buf depth e ~nested:(c.attributes <> [] || c.operations <> [])
      then begin
        add_owned buf m (depth + 1) c.attributes;
        add_owned buf m (depth + 1) c.operations;
        close_tag buf depth "Class"
      end
  | Mof.Kind.Interface { operations } ->
      open_tag buf depth "Interface" e;
      if children_follow buf depth e ~nested:(operations <> []) then begin
        add_owned buf m (depth + 1) operations;
        close_tag buf depth "Interface"
      end
  | Mof.Kind.Attribute a ->
      open_tag buf depth "Attribute" e;
      add_attr buf "type" (Dtype.to_string a.attr_type);
      add_attr buf "visibility" (Mof.Kind.visibility_to_string a.attr_visibility);
      add_attr buf "multiplicity" (Mof.Kind.mult_to_string a.attr_mult);
      bool_attr buf "isDerived" a.is_derived;
      bool_attr buf "isStatic" a.is_static;
      (match a.initial_value with Some v -> add_attr buf "initial" v | None -> ());
      leaf buf depth "Attribute" e
  | Mof.Kind.Operation o ->
      open_tag buf depth "Operation" e;
      add_attr buf "visibility" (Mof.Kind.visibility_to_string o.op_visibility);
      bool_attr buf "isQuery" o.is_query;
      bool_attr buf "isAbstract" o.is_abstract_op;
      bool_attr buf "isStatic" o.is_static_op;
      if children_follow buf depth e ~nested:(o.params <> []) then begin
        add_owned buf m (depth + 1) o.params;
        close_tag buf depth "Operation"
      end
  | Mof.Kind.Parameter p ->
      open_tag buf depth "Parameter" e;
      add_attr buf "type" (Dtype.to_string p.param_type);
      add_attr buf "direction" (Mof.Kind.direction_to_string p.direction);
      leaf buf depth "Parameter" e
  | Mof.Kind.Association { ends } ->
      open_tag buf depth "Association" e;
      if children_follow buf depth e ~nested:(ends <> []) then begin
        List.iter (add_end buf (depth + 1)) ends;
        close_tag buf depth "Association"
      end
  | Mof.Kind.Generalization { child; parent } ->
      open_tag buf depth "Generalization" e;
      id_attr buf "child" child;
      id_attr buf "parent" parent;
      leaf buf depth "Generalization" e
  | Mof.Kind.Dependency { client; supplier } ->
      open_tag buf depth "Dependency" e;
      id_attr buf "client" client;
      id_attr buf "supplier" supplier;
      leaf buf depth "Dependency" e
  | Mof.Kind.Constraint_ { constrained; body; language } ->
      open_tag buf depth "Constraint" e;
      add_attr buf "language" language;
      ids_attr buf "constrained" constrained;
      ignore (children_follow buf depth e ~nested:true : bool);
      pad buf (depth + 1);
      Buffer.add_string buf "<Constraint.body>";
      add_escaped buf ~in_attr:false body;
      Buffer.add_string buf "</Constraint.body>\n";
      close_tag buf depth "Constraint"
  | Mof.Kind.Enumeration { literals } ->
      open_tag buf depth "Enumeration" e;
      if children_follow buf depth e ~nested:(literals <> []) then begin
        List.iter (add_literal buf (depth + 1)) literals;
        close_tag buf depth "Enumeration"
      end

and add_owned buf m depth = function
  | [] -> ()
  | id :: rest ->
      element buf m depth (Mof.Model.find_exn m id);
      add_owned buf m depth rest

let to_string m =
  Obs.span ~cat:"xmi" "xmi.export"
    ~args:[ ("model", Obs.Event.V_string (Mof.Model.name m)) ]
  @@ fun () ->
  let size = Mof.Model.size m in
  if Obs.enabled () then
    Obs.event ~cat:"xmi" "xmi.export.model" ~args:[ ("elements", Obs.Event.V_int size) ];
  Obs.incr "xmi.exports" [];
  let buf = Buffer.create (512 + (128 * size)) in
  Buffer.add_string buf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <XMI xmi.version=\"1.2\">\n\
    \  <XMI.header>\n\
    \    <XMI.documentation>\n\
    \      <XMI.exporter name=\"mdweave\"/>\n\
    \    </XMI.documentation>\n\
    \  </XMI.header>\n\
    \  <XMI.content>\n\
    \    <Model";
  add_attr buf "name" (Mof.Model.name m);
  id_attr buf "root" (Mof.Model.root m);
  (* the model's own counter already exceeds every bound id *)
  add_attr buf "next" (string_of_int (Mof.Model.next m));
  Buffer.add_string buf ">\n";
  element buf m 3 (Mof.Model.find_exn m (Mof.Model.root m));
  Buffer.add_string buf "    </Model>\n  </XMI.content>\n</XMI>\n";
  Buffer.contents buf

(* The temporary file sits beside [path], so the rename cannot cross file
   systems, and is created like [open_out] would create [path] (mode 0o666
   before the umask). *)
let replace_file path contents =
  let dir = Filename.dirname path and base = Filename.basename path in
  let rng = Random.State.make_self_init () in
  let rec create attempts =
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".%s.%06x.tmp" base (Random.State.bits rng land 0xFFFFFF))
    in
    match open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp with
    | oc -> (tmp, oc)
    | exception Sys_error _ when attempts > 0 && Sys.file_exists tmp -> create (attempts - 1)
  in
  let tmp, oc = create 100 in
  match
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write_file path m = replace_file path (to_string m)
