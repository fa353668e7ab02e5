(* The DOM round trip the streaming XMI paths replaced, kept as their
   reference: [of_xml (Xmi.Xml_parser.parse s)] is what [Xmi.Import.from_string s]
   must return, and [to_string (to_xml m)] is what [Xmi.Export.to_string m]
   must write. *)

(* ---- printer --------------------------------------------------------------- *)

let escape common s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when common -> Buffer.add_string buf "&quot;"
      | '\'' when common -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s = escape true s
let escape_text s = escape false s

let print ?(indent = 2) ?(declaration = true) root =
  let buf = Buffer.create 1024 in
  if declaration then
    Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  let pad depth = Buffer.add_string buf (String.make (depth * indent) ' ') in
  let add_attrs attrs =
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_attr v);
        Buffer.add_char buf '"')
      attrs
  in
  let only_text children =
    children <> [] && List.for_all (function Xmi.Xml.Text _ -> true | Xmi.Xml.Elem _ -> false) children
  in
  let rec render depth node =
    match node with
    | Xmi.Xml.Text s ->
        pad depth;
        Buffer.add_string buf (escape_text s);
        Buffer.add_char buf '\n'
    | Xmi.Xml.Elem { tag; attrs; children } ->
        pad depth;
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        add_attrs attrs;
        if children = [] then Buffer.add_string buf "/>\n"
        else if only_text children then begin
          Buffer.add_char buf '>';
          List.iter
            (function
              | Xmi.Xml.Text s -> Buffer.add_string buf (escape_text s)
              | Xmi.Xml.Elem _ -> assert false)
            children;
          Buffer.add_string buf ("</" ^ tag ^ ">\n")
        end
        else begin
          Buffer.add_string buf ">\n";
          List.iter (render (depth + 1)) children;
          pad depth;
          Buffer.add_string buf ("</" ^ tag ^ ">\n")
        end
  in
  render 0 root;
  Buffer.contents buf

(* ---- import from the tree ---------------------------------------------------- *)

(* Raises the production importer's exception, so the two paths can be
   compared by the error they report. *)
let error fmt = Format.kasprintf (fun s -> raise (Xmi.Import.Import_error s)) fmt

let require node name =
  match Xmi.Xml.attr name node with
  | Some v -> v
  | None ->
      error "missing attribute %s on <%s>" name
        (Option.value ~default:"?" (Xmi.Xml.tag node))

let id_of node name =
  let raw = require node name in
  match Mof.Id.of_string raw with
  | Some id -> id
  | None -> error "malformed id %s in attribute %s" raw name

let ids_of node name =
  let raw = require node name in
  if String.equal raw "" then []
  else
    List.map
      (fun part ->
        match Mof.Id.of_string part with
        | Some id -> id
        | None -> error "malformed id %s in attribute %s" part name)
      (String.split_on_char ' ' raw)

let bool_of node name =
  match require node name with
  | "true" -> true
  | "false" -> false
  | v -> error "malformed boolean %s in attribute %s" v name

let dtype_of node name =
  let raw = require node name in
  match Xmi.Dtype.of_string raw with
  | Some dt -> dt
  | None -> error "malformed datatype %s" raw

let mult_of node name =
  let raw = require node name in
  match Mof.Kind.mult_of_string raw with
  | Some mult -> mult
  | None -> error "malformed multiplicity %s" raw

let visibility_of node =
  let raw = require node "visibility" in
  match Mof.Kind.visibility_of_string raw with
  | Some v -> v
  | None -> error "malformed visibility %s" raw

(* Children that represent owned elements, as opposed to Stereotype /
   TaggedValue / AssociationEnd / Constraint.body extension nodes. *)
let owned_children node =
  List.filter
    (fun c ->
      match Xmi.Xml.tag c with
      | Some
          ( "Stereotype" | "TaggedValue" | "AssociationEnd" | "Constraint.body"
          | "Literal" ) ->
          false
      | Some _ -> true
      | None -> false)
    (Xmi.Xml.children node)

let stereotypes_of node =
  List.map (fun c -> require c "name") (Xmi.Xml.find_children "Stereotype" node)

let tags_of node =
  List.map
    (fun c -> (require c "tag", require c "value"))
    (Xmi.Xml.find_children "TaggedValue" node)

let assoc_end_of node =
  {
    Mof.Kind.end_name = require node "name";
    end_type =
      (match Mof.Id.of_string (require node "type") with
      | Some id -> id
      | None -> error "malformed association end type");
    end_mult = mult_of node "multiplicity";
    end_navigable = bool_of node "navigable";
    end_aggregation =
      (match Mof.Kind.aggregation_of_string (require node "aggregation") with
      | Some a -> a
      | None -> error "malformed aggregation");
  }

(* Walk the containment tree, emitting elements in document order. *)
let rec walk_element ~owner node acc =
  let id = id_of node "xmi.id" in
  let name = require node "name" in
  let tag = match Xmi.Xml.tag node with Some t -> t | None -> error "text node" in
  let child_ids_of_kind wanted =
    List.filter_map
      (fun c ->
        match Xmi.Xml.tag c with
        | Some t when String.equal t wanted -> Some (id_of c "xmi.id")
        | _ -> None)
      (Xmi.Xml.children node)
  in
  let kind =
    match tag with
    | "Package" ->
        Mof.Kind.Package
          { owned = List.map (fun c -> id_of c "xmi.id") (owned_children node) }
    | "Class" ->
        Mof.Kind.Class
          {
            is_abstract = bool_of node "isAbstract";
            attributes = child_ids_of_kind "Attribute";
            operations = child_ids_of_kind "Operation";
            supers = ids_of node "supers";
            realizes = ids_of node "realizes";
          }
    | "Interface" ->
        Mof.Kind.Interface { operations = child_ids_of_kind "Operation" }
    | "Attribute" ->
        Mof.Kind.Attribute
          {
            attr_type = dtype_of node "type";
            attr_visibility = visibility_of node;
            attr_mult = mult_of node "multiplicity";
            is_derived = bool_of node "isDerived";
            is_static = bool_of node "isStatic";
            initial_value = Xmi.Xml.attr "initial" node;
          }
    | "Operation" ->
        Mof.Kind.Operation
          {
            params = child_ids_of_kind "Parameter";
            op_visibility = visibility_of node;
            is_query = bool_of node "isQuery";
            is_abstract_op = bool_of node "isAbstract";
            is_static_op = bool_of node "isStatic";
          }
    | "Parameter" ->
        Mof.Kind.Parameter
          {
            param_type = dtype_of node "type";
            direction =
              (match Mof.Kind.direction_of_string (require node "direction") with
              | Some d -> d
              | None -> error "malformed direction");
          }
    | "Association" ->
        Mof.Kind.Association
          { ends = List.map assoc_end_of (Xmi.Xml.find_children "AssociationEnd" node) }
    | "Generalization" ->
        Mof.Kind.Generalization
          { child = id_of node "child"; parent = id_of node "parent" }
    | "Dependency" ->
        Mof.Kind.Dependency
          { client = id_of node "client"; supplier = id_of node "supplier" }
    | "Constraint" ->
        let body =
          match Xmi.Xml.find_child "Constraint.body" node with
          | Some b -> Xmi.Xml.text_content b
          | None -> ""
        in
        Mof.Kind.Constraint_
          {
            constrained = ids_of node "constrained";
            body;
            language = require node "language";
          }
    | "Enumeration" ->
        Mof.Kind.Enumeration
          {
            literals =
              List.map
                (fun c -> require c "name")
                (Xmi.Xml.find_children "Literal" node);
          }
    | t -> error "unknown element tag <%s>" t
  in
  let element =
    Mof.Element.make
      ~stereotypes:(stereotypes_of node)
      ~tags:(tags_of node) ~id ~name ~owner kind
  in
  List.fold_left
    (fun acc child -> walk_element ~owner:(Some id) child acc)
    (element :: acc) (owned_children node)

let of_xml doc =
  if Xmi.Xml.tag doc <> Some "XMI" then error "root element is not <XMI>";
  let content =
    match Xmi.Xml.find_child "XMI.content" doc with
    | Some c -> c
    | None -> error "missing <XMI.content>"
  in
  let model_node =
    match Xmi.Xml.find_child "Model" content with
    | Some node -> node
    | None -> error "missing <Model>"
  in
  let root = id_of model_node "root" in
  let next =
    let raw = require model_node "next" in
    match
      if raw <> "" && String.for_all (fun c -> c >= '0' && c <= '9') raw then
        int_of_string_opt raw
      else None
    with
    | Some n -> n
    | None -> error "malformed next counter"
  in
  let root_node =
    match Xmi.Xml.child_elems model_node with
    | [ node ] -> node
    | nodes -> error "expected exactly one root element, found %d" (List.length nodes)
  in
  let elements = walk_element ~owner:None root_node [] in
  match Mof.Model.of_elements ~root ~next elements with
  | exception Invalid_argument msg -> error "%s" msg
  | m -> (
      let r = Mof.Model.find_exn m root in
      match (r.Mof.Element.kind, r.Mof.Element.owner) with
      | Mof.Kind.Package _, None -> m
      | _, Some _ -> error "root %s is not a top-level element" (Mof.Id.to_string root)
      | _, None ->
          error "root %s is a %s, not a Package" (Mof.Id.to_string root)
            (Mof.Element.metaclass r))

(* ---- export to the tree ------------------------------------------------------ *)

let ids_attr ids = String.concat " " (List.map Mof.Id.to_string ids)

let bool_attr b = if b then "true" else "false"

(* Stereotype and tagged-value children shared by every element kind. *)
let extension_children (e : Mof.Element.t) =
  List.map (fun s -> Xmi.Xml.elem ~attrs:[ ("name", s) ] "Stereotype" []) e.stereotypes
  @ List.map
      (fun (k, v) -> Xmi.Xml.elem ~attrs:[ ("tag", k); ("value", v) ] "TaggedValue" [])
      e.tags

let rec element_to_xml m (e : Mof.Element.t) =
  let id_attr = ("xmi.id", Mof.Id.to_string e.id) in
  let name_attr = ("name", e.name) in
  let nested ids = List.map (fun c -> element_to_xml m (Mof.Model.find_exn m c)) ids in
  let ext = extension_children e in
  match e.kind with
  | Mof.Kind.Package { owned } ->
      Xmi.Xml.elem ~attrs:[ id_attr; name_attr ] "Package" (ext @ nested owned)
  | Mof.Kind.Class c ->
      Xmi.Xml.elem
        ~attrs:
          [
            id_attr;
            name_attr;
            ("isAbstract", bool_attr c.is_abstract);
            ("supers", ids_attr c.supers);
            ("realizes", ids_attr c.realizes);
          ]
        "Class"
        (ext @ nested c.attributes @ nested c.operations)
  | Mof.Kind.Interface { operations } ->
      Xmi.Xml.elem ~attrs:[ id_attr; name_attr ] "Interface" (ext @ nested operations)
  | Mof.Kind.Attribute a ->
      let attrs =
        [
          id_attr;
          name_attr;
          ("type", Xmi.Dtype.to_string a.attr_type);
          ("visibility", Mof.Kind.visibility_to_string a.attr_visibility);
          ("multiplicity", Mof.Kind.mult_to_string a.attr_mult);
          ("isDerived", bool_attr a.is_derived);
          ("isStatic", bool_attr a.is_static);
        ]
        @
        match a.initial_value with
        | Some v -> [ ("initial", v) ]
        | None -> []
      in
      Xmi.Xml.elem ~attrs "Attribute" ext
  | Mof.Kind.Operation o ->
      Xmi.Xml.elem
        ~attrs:
          [
            id_attr;
            name_attr;
            ("visibility", Mof.Kind.visibility_to_string o.op_visibility);
            ("isQuery", bool_attr o.is_query);
            ("isAbstract", bool_attr o.is_abstract_op);
            ("isStatic", bool_attr o.is_static_op);
          ]
        "Operation"
        (ext @ nested o.params)
  | Mof.Kind.Parameter p ->
      Xmi.Xml.elem
        ~attrs:
          [
            id_attr;
            name_attr;
            ("type", Xmi.Dtype.to_string p.param_type);
            ("direction", Mof.Kind.direction_to_string p.direction);
          ]
        "Parameter" ext
  | Mof.Kind.Association { ends } ->
      let end_to_xml (en : Mof.Kind.assoc_end) =
        Xmi.Xml.elem
          ~attrs:
            [
              ("name", en.end_name);
              ("type", Mof.Id.to_string en.end_type);
              ("multiplicity", Mof.Kind.mult_to_string en.end_mult);
              ("navigable", bool_attr en.end_navigable);
              ("aggregation", Mof.Kind.aggregation_to_string en.end_aggregation);
            ]
          "AssociationEnd" []
      in
      Xmi.Xml.elem ~attrs:[ id_attr; name_attr ] "Association"
        (ext @ List.map end_to_xml ends)
  | Mof.Kind.Generalization { child; parent } ->
      Xmi.Xml.elem
        ~attrs:
          [
            id_attr;
            name_attr;
            ("child", Mof.Id.to_string child);
            ("parent", Mof.Id.to_string parent);
          ]
        "Generalization" ext
  | Mof.Kind.Dependency { client; supplier } ->
      Xmi.Xml.elem
        ~attrs:
          [
            id_attr;
            name_attr;
            ("client", Mof.Id.to_string client);
            ("supplier", Mof.Id.to_string supplier);
          ]
        "Dependency" ext
  | Mof.Kind.Constraint_ { constrained; body; language } ->
      Xmi.Xml.elem
        ~attrs:
          [ id_attr; name_attr; ("language", language); ("constrained", ids_attr constrained) ]
        "Constraint"
        (ext @ [ Xmi.Xml.elem "Constraint.body" [ Xmi.Xml.text body ] ])
  | Mof.Kind.Enumeration { literals } ->
      Xmi.Xml.elem ~attrs:[ id_attr; name_attr ] "Enumeration"
        (ext
        @ List.map
            (fun lit -> Xmi.Xml.elem ~attrs:[ ("name", lit) ] "Literal" [])
            literals)

let to_xml m =
  let root = Mof.Model.root m in
  (* the model's own counter already exceeds every bound id *)
  let next = Mof.Model.next m in
  Xmi.Xml.elem
    ~attrs:[ ("xmi.version", "1.2") ]
    "XMI"
    [
      Xmi.Xml.elem "XMI.header"
        [
          Xmi.Xml.elem "XMI.documentation"
            [ Xmi.Xml.elem ~attrs:[ ("name", "mdweave") ] "XMI.exporter" [] ];
        ];
      Xmi.Xml.elem "XMI.content"
        [
          Xmi.Xml.elem
            ~attrs:
              [
                ("name", Mof.Model.name m);
                ("root", Mof.Id.to_string root);
                ("next", string_of_int next);
              ]
            "Model"
            [ element_to_xml m (Mof.Model.find_exn m root) ];
        ];
    ]


let to_string m = print (to_xml m)
let of_string s = of_xml (Xmi.Xml_parser.parse s)
