(* Tests for the XML substrate and the XMI import/export round trip. *)

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let parse = Xmi.Xml_parser.parse
let print ?declaration tree = Check.Xmi_ref.print ?declaration tree

(* ---- xml accessors ----------------------------------------------------- *)

let xml_tests =
  let tree =
    Xmi.Xml.elem ~attrs:[ ("a", "1"); ("b", "2") ] "root"
      [
        Xmi.Xml.elem "child" [ Xmi.Xml.text "hello" ];
        Xmi.Xml.elem ~attrs:[ ("k", "v") ] "child" [];
        Xmi.Xml.elem "other" [];
      ]
  in
  [
    Alcotest.test_case "attr lookup" `Quick (fun () ->
        check cb "a" true (Xmi.Xml.attr "a" tree = Some "1");
        check cb "missing" true (Xmi.Xml.attr "z" tree = None));
    Alcotest.test_case "find_child / find_children" `Quick (fun () ->
        check ci "children named child" 2
          (List.length (Xmi.Xml.find_children "child" tree));
        check cb "first child has text" true
          (match Xmi.Xml.find_child "child" tree with
          | Some c -> Xmi.Xml.text_content c = "hello"
          | None -> false));
    Alcotest.test_case "child_elems skips text" `Quick (fun () ->
        let mixed = Xmi.Xml.elem "m" [ Xmi.Xml.text "t"; Xmi.Xml.elem "e" [] ] in
        check ci "one element" 1 (List.length (Xmi.Xml.child_elems mixed)));
    Alcotest.test_case "tag of text is None" `Quick (fun () ->
        check cb "none" true (Xmi.Xml.tag (Xmi.Xml.text "x") = None));
  ]

(* ---- xml parser -------------------------------------------------------- *)

let parser_tests =
  [
    Alcotest.test_case "attributes with both quote styles" `Quick (fun () ->
        let tree = parse "<a x=\"1\" y='2'/>" in
        check cb "x" true (Xmi.Xml.attr "x" tree = Some "1");
        check cb "y" true (Xmi.Xml.attr "y" tree = Some "2"));
    Alcotest.test_case "entities resolved" `Quick (fun () ->
        let tree = parse "<a x=\"&lt;&gt;&amp;&quot;&apos;\">&amp;text</a>" in
        check cb "attr" true (Xmi.Xml.attr "x" tree = Some "<>&\"'");
        check cs "text" "&text" (Xmi.Xml.text_content tree));
    Alcotest.test_case "character references" `Quick (fun () ->
        let tree = parse "<a>&#65;&#x42;</a>" in
        check cs "AB" "AB" (Xmi.Xml.text_content tree));
    Alcotest.test_case "character references decode to UTF-8" `Quick (fun () ->
        (* &#233; = é (2 bytes), &#x1F600; = 😀 (4 bytes): references above
           U+007F must produce UTF-8, not raw Latin-1 bytes *)
        let tree = parse "<a>&#233; &#x433; &#x20AC; &#x1F600;</a>" in
        check cs "utf8" "\xC3\xA9 \xD0\xB3 \xE2\x82\xAC \xF0\x9F\x98\x80"
          (Xmi.Xml.text_content tree);
        let tree = parse "<a x=\"caf&#xE9;\"/>" in
        check cb "attr" true (Xmi.Xml.attr "x" tree = Some "caf\xC3\xA9"));
    Alcotest.test_case "surrogate and out-of-range references rejected" `Quick
      (fun () ->
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (parse src);
                 false
               with Xmi.Xml_parser.Xml_error _ -> true))
          [
            "<a>&#xD800;</a>";
            "<a>&#xDFFF;</a>";
            "<a>&#x110000;</a>";
            "<a>&#5000000;</a>";
          ]);
    Alcotest.test_case "CDATA preserved verbatim" `Quick (fun () ->
        let tree = parse "<a><![CDATA[1 < 2 && 3 > 2]]></a>" in
        check cs "cdata" "1 < 2 && 3 > 2" (Xmi.Xml.text_content tree));
    Alcotest.test_case "comments and prolog skipped" `Quick (fun () ->
        let tree =
          parse "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/></a>"
        in
        check ci "one child" 1 (List.length (Xmi.Xml.child_elems tree)));
    Alcotest.test_case "nested structure and order" `Quick (fun () ->
        let tree = parse "<a><b/><c/><b/></a>" in
        check (Alcotest.list cs) "order" [ "b"; "c"; "b" ]
          (List.filter_map Xmi.Xml.tag (Xmi.Xml.children tree)));
    Alcotest.test_case "whitespace-only text dropped" `Quick (fun () ->
        let tree = parse "<a>\n  <b/>\n</a>" in
        check ci "children" 1 (List.length (Xmi.Xml.children tree)));
    Alcotest.test_case "mismatched closing tag rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a></b>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
    Alcotest.test_case "trailing content rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a/><b/>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
    Alcotest.test_case "unterminated input rejected" `Quick (fun () ->
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (parse src);
                 false
               with Xmi.Xml_parser.Xml_error _ -> true))
          [ "<a>"; "<a attr='1"; "<a><!-- never closed"; "" ]);
    Alcotest.test_case "unknown entity rejected" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (parse "<a>&nope;</a>");
             false
           with Xmi.Xml_parser.Xml_error _ -> true));
  ]

(* ---- xml printer ------------------------------------------------------- *)

let printer_tests =
  [
    Alcotest.test_case "escaping in attributes and text" `Quick (fun () ->
        let tree =
          Xmi.Xml.elem ~attrs:[ ("x", "<a> & \"b\"") ] "t"
            [ Xmi.Xml.text "1 < 2 & 3" ]
        in
        let round = parse (print tree) in
        check cb "round trip" true (Xmi.Xml.equal tree round));
    Alcotest.test_case "declaration toggle" `Quick (fun () ->
        let tree = Xmi.Xml.elem "a" [] in
        check cb "with" true
          (String.length (print tree) > String.length (print ~declaration:false tree)));
    Alcotest.test_case "print/parse round trip on nested trees" `Quick (fun () ->
        let tree =
          Xmi.Xml.elem "a"
            [
              Xmi.Xml.elem ~attrs:[ ("k", "v") ] "b"
                [ Xmi.Xml.elem "c" [ Xmi.Xml.text "deep" ] ];
              Xmi.Xml.elem "b" [];
            ]
        in
        check cb "equal" true (Xmi.Xml.equal tree (parse (print tree))));
  ]

(* ---- datatype serialization -------------------------------------------- *)

let dtype_tests =
  [
    Alcotest.test_case "round trips" `Quick (fun () ->
        List.iter
          (fun dt ->
            check cb
              (Xmi.Dtype.to_string dt)
              true
              (Xmi.Dtype.of_string (Xmi.Dtype.to_string dt) = Some dt))
          [
            Mof.Kind.Dt_void;
            Mof.Kind.Dt_boolean;
            Mof.Kind.Dt_integer;
            Mof.Kind.Dt_real;
            Mof.Kind.Dt_string;
            Mof.Kind.Dt_ref (Mof.Id.of_int 12);
            Mof.Kind.Dt_collection Mof.Kind.Dt_string;
            Mof.Kind.Dt_collection (Mof.Kind.Dt_collection Mof.Kind.Dt_integer);
            Mof.Kind.Dt_collection (Mof.Kind.Dt_ref (Mof.Id.of_int 3));
          ]);
    Alcotest.test_case "rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s -> check cb s true (Xmi.Dtype.of_string s = None))
          [ ""; "int"; "ref:"; "ref:x"; "Set("; "Set(Integer"; "Set()" ]);
  ]

(* ---- XMI round trip ----------------------------------------------------- *)

let special_model () =
  (* a model exercising every element kind, plus text needing escapes *)
  let m = Fixtures.banking () in
  let acct = Fixtures.class_id m "Account" in
  let m = Mof.Builder.add_stereotype m acct "entity" in
  let m = Mof.Builder.set_tag m acct "note" "a < b & \"c\" 'd'" in
  let m, _ =
    Mof.Builder.add_constraint m ~owner:(Mof.Model.root m) ~name:"tricky"
      ~constrained:[ acct ]
      ~body:"self.name <> '<&>' and 1 < 2"
  in
  let m, _ =
    Mof.Builder.add_enumeration m ~owner:(Mof.Model.root m) ~name:"Currency"
      ~literals:[ "CHF"; "EUR" ]
  in
  Mof.Model.set_level_tag "PIM" m

let xmi_tests =
  [
    Alcotest.test_case "banking round trip is structurally equal" `Quick
      (fun () ->
        let m = Fixtures.banking () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "equal" true (Mof.Model.equal m m'));
    Alcotest.test_case "special characters survive the round trip" `Quick
      (fun () ->
        let m = special_model () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "equal" true (Mof.Model.equal m m'));
    Alcotest.test_case "refined model (stereotypes everywhere) round trips"
      `Quick (fun () ->
        let m = Fixtures.banking () in
        let gmt = Concerns.Distribution.transformation in
        let cmt =
          Transform.Cmt.specialize_exn gmt
            [
              ( "remote",
                Transform.Params.V_list
                  [ Transform.Params.V_ident "Account" ] );
            ]
        in
        match Transform.Engine.apply cmt m with
        | Ok outcome ->
            let refined = outcome.Transform.Engine.model in
            let m' = Xmi.Import.from_string (Xmi.Export.to_string refined) in
            check cb "equal" true (Mof.Model.equal refined m')
        | Error _ -> Alcotest.fail "transformation failed");
    Alcotest.test_case "fresh ids after import do not clash" `Quick (fun () ->
        let m = Fixtures.banking () in
        let m' = Xmi.Import.from_string (Xmi.Export.to_string m) in
        let m'', id = Mof.Builder.add_class m' ~owner:(Mof.Model.root m') ~name:"New" in
        check cb "well-formed" true (Mof.Wellformed.is_wellformed m'');
        check cb "fresh id unbound before" true (not (Mof.Model.mem m' id)));
    Alcotest.test_case "import rejects a non-XMI root" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string "<NotXmi/>");
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects missing content" `Quick (fun () ->
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string "<XMI xmi.version=\"1.2\"/>");
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects malformed element ids" `Quick (fun () ->
        let doc =
          "<XMI xmi.version=\"1.2\"><XMI.content><Model name=\"x\" \
           root=\"e0\" next=\"1\"><Package xmi.id=\"banana\" \
           name=\"x\"/></Model></XMI.content></XMI>"
        in
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string doc);
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "import rejects unknown element tags" `Quick (fun () ->
        let doc =
          "<XMI xmi.version=\"1.2\"><XMI.content><Model name=\"x\" \
           root=\"e0\" next=\"2\"><Widget xmi.id=\"e0\" \
           name=\"x\"/></Model></XMI.content></XMI>"
        in
        check cb "raises" true
          (try
             ignore (Xmi.Import.from_string doc);
             false
           with Xmi.Import.Import_error _ -> true));
    Alcotest.test_case "newlines in tagged values survive" `Quick (fun () ->
        let m = Fixtures.banking () in
        let acct = Fixtures.class_id m "Account" in
        let m = Mof.Builder.set_tag m acct "doc" "line one\nline two" in
        let m2 = Xmi.Import.from_string (Xmi.Export.to_string m) in
        check cb "preserved" true
          (Mof.Element.tag "doc" (Mof.Model.find_exn m2 acct)
          = Some "line one\nline two"));
    Alcotest.test_case "entity-heavy and non-ASCII content round trips" `Quick
      (fun () ->
        (* ampersands, angle brackets, both quote kinds, accents, CJK, and
           an emoji across names, stereotypes, tags, and constraint bodies;
           asserts the import∘export fixpoint, not just model equality *)
        let m = Mof.Model.create ~name:"inter&national" in
        let root = Mof.Model.root m in
        let m, cls = Mof.Builder.add_class m ~owner:root ~name:"Caf\xC3\xA9" in
        let m = Mof.Builder.add_stereotype m cls "s\xC3\xA9curis\xC3\xA9" in
        let m = Mof.Builder.set_tag m cls "note" "a < b & \"c\" 'd'" in
        let m = Mof.Builder.set_tag m cls "emoji" "\xF0\x9F\x98\x80 ok" in
        let m, _ =
          Mof.Builder.add_attribute m ~cls ~name:"gr\xC3\xB6\xC3\x9Fe"
            ~typ:Mof.Kind.Dt_real ~initial:"'\xC3\xA9'"
        in
        let m, _ =
          Mof.Builder.add_class m ~owner:root ~name:"\xE5\xBA\x97\xE7\x95\xAA"
        in
        let m, _ =
          Mof.Builder.add_constraint m ~owner:root ~name:"body&refs"
            ~constrained:[ cls ] ~body:"name <> '\xC3\xA9t\xC3\xA9' & 1 < 2"
        in
        let s1 = Xmi.Export.to_string m in
        let m2 = Xmi.Import.from_string s1 in
        let s2 = Xmi.Export.to_string m2 in
        check cs "export fixpoint" s1 s2;
        check cb "model equal" true (Mof.Model.equal m m2));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let path = Filename.temp_file "mdweave" ".xmi" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let m = special_model () in
            Xmi.Export.write_file path m;
            check cb "equal" true (Mof.Model.equal m (Xmi.Import.read_file path))));
  ]

(* ---- streaming import against the DOM reference ------------------------- *)

type outcome = Imported of Mof.Model.t | Xml_err | Xmi_err of string

let outcome import s =
  match import s with
  | m -> Imported m
  | exception Xmi.Xml_parser.Xml_error _ -> Xml_err
  | exception Xmi.Import.Import_error msg -> Xmi_err msg

(* Streaming and reference reach the same verdict; returns it. *)
let both s =
  let streamed = outcome Xmi.Import.from_string s in
  let reference = outcome Check.Xmi_ref.of_string s in
  (match (streamed, reference) with
  | Imported a, Imported b -> check cb "same model as the reference" true (Mof.Model.equal a b)
  | Xml_err, Xml_err -> ()
  | Xmi_err a, Xmi_err b -> check cs "same message as the reference" b a
  | _ -> Alcotest.fail "streaming and reference verdicts differ");
  streamed

let doc ?(header = "") ?(after_model = "") ?(after_content = "") ?(next = "3")
    ?(root_ref = "e0") root =
  Printf.sprintf
    "<XMI xmi.version=\"1.2\"><XMI.header>%s</XMI.header><XMI.content><Model \
     name=\"x\" root=\"%s\" next=\"%s\">%s</Model>%s</XMI.content>%s</XMI>"
    header root_ref next root after_model after_content

let package ?(id = "e0") children =
  Printf.sprintf "<Package xmi.id=\"%s\" name=\"x\">%s</Package>" id children

let constraint_with bodies =
  package
    ("<Constraint xmi.id=\"e1\" name=\"c\" language=\"OCL\" constrained=\"\">"
    ^ bodies ^ "</Constraint>")

let body_of s =
  match both s with
  | Imported m -> (
      match (Mof.Model.find_exn m (Mof.Id.of_int 1)).kind with
      | Mof.Kind.Constraint_ { body; _ } -> body
      | _ -> Alcotest.fail "e1 is not a constraint")
  | _ -> Alcotest.fail "import failed"

let imports s = match both s with Imported m -> m | _ -> Alcotest.fail "import failed"

let rejected_as_xml s = match both s with Xml_err -> true | _ -> false

let xmi_message s = match both s with Xmi_err msg -> msg | _ -> Alcotest.fail "no XMI error"

let streaming_tests =
  [
    Alcotest.test_case "a comment splits a body without eating spaces" `Quick
      (fun () ->
        check cs "body" "a  b"
          (body_of (doc (constraint_with "<Constraint.body>a<!-- -->  b</Constraint.body>"))));
    Alcotest.test_case "whitespace-only segments are dropped" `Quick (fun () ->
        check cs "blank body" ""
          (body_of (doc (constraint_with "<Constraint.body> \n\t </Constraint.body>")));
        check cs "blank between comments" "x y"
          (body_of
             (doc (constraint_with "<Constraint.body>x<!-- -->  <?p?> y</Constraint.body>")));
        check cs "CDATA kept verbatim" "x  <&> y"
          (body_of
             (doc
                (constraint_with
                   "<Constraint.body>x<![CDATA[  <&> ]]>y</Constraint.body>"))));
    Alcotest.test_case "the first Constraint.body wins" `Quick (fun () ->
        check cs "first" "one"
          (body_of
             (doc
                (constraint_with
                   "<Constraint.body>one</Constraint.body><Constraint.body>two</Constraint.body>"))));
    Alcotest.test_case "later XMI.content and Model are ignored" `Quick (fun () ->
        let m =
          imports
            (doc
               ~header:"<XMI.documentation><Unknown a='1'><b/></Unknown></XMI.documentation>"
               ~after_model:"<Model name=\"y\" root=\"e9\" next=\"1\"/>"
               ~after_content:"<XMI.content><Model/></XMI.content>"
               (package ""))
        in
        check cs "name" "x" (Mof.Model.name m);
        check ci "next" 3 (Mof.Model.next m));
    Alcotest.test_case "permuted and single-quoted attributes" `Quick (fun () ->
        let m =
          imports
            (doc
               (package
                  "<Class supers='' realizes=\"\" name='A&amp;B' isAbstract='true' \
                   xmi.id='e1'/>"))
        in
        let cls = Mof.Model.find_exn m (Mof.Id.of_int 1) in
        check cs "name" "A&B" cls.name;
        check cb "abstract" true
          (match cls.kind with Mof.Kind.Class c -> c.is_abstract | _ -> false));
    Alcotest.test_case "a mismatched close inside a skipped subtree is an XML error"
      `Quick (fun () ->
        check cb "in the header" true (rejected_as_xml (doc ~header:"<a><b></a></b>" (package "")));
        check cb "in a stereotype" true
          (rejected_as_xml (doc (package "<Stereotype name='s'><x></y></Stereotype>")));
        check cb "in a later model" true
          (rejected_as_xml (doc ~after_model:"<Model><p></q></Model>" (package ""))));
    Alcotest.test_case "two root elements are reported as found 2" `Quick (fun () ->
        check cs "message" "expected exactly one root element, found 2"
          (xmi_message (doc (package "" ^ package ~id:"e1" ""))));
    Alcotest.test_case "trailing content is rejected" `Quick (fun () ->
        check cb "element" true (rejected_as_xml (doc (package "") ^ "<XMI/>"));
        check cb "text" true (rejected_as_xml (doc (package "") ^ "junk"));
        check cb "comment allowed" false (rejected_as_xml (doc (package "") ^ "<!-- ok -->\n")));
    Alcotest.test_case "references in unread values are still checked" `Quick
      (fun () ->
        check cb "unknown attribute" true
          (rejected_as_xml (doc (package "<Stereotype name='s' junk='&nope;'/>")));
        check cb "skipped text" true
          (rejected_as_xml (doc ~header:"<a>&#xD800;</a>" (package ""))));
    Alcotest.test_case "the root must be a top-level Package" `Quick (fun () ->
        let cls = "<Class xmi.id=\"e1\" name=\"C\" isAbstract=\"false\" supers=\"\" realizes=\"\"/>" in
        ignore (imports (doc (package cls)) : Mof.Model.t);
        check cs "nested class" "root e1 is not a top-level element"
          (xmi_message (doc ~root_ref:"e1" (package cls)));
        check cs "top-level class" "root e1 is a Class, not a Package"
          (xmi_message (doc ~root_ref:"e1" cls)));
  ]

(* ---- strict numbers at the XMI boundary ---------------------------------- *)

let strict_number_tests =
  [
    Alcotest.test_case "non-canonical ids are rejected" `Quick (fun () ->
        List.iter
          (fun id ->
            let msg = xmi_message (doc (package ~id "")) in
            check cs id (Printf.sprintf "malformed id %s in attribute xmi.id" id) msg)
          [ "e1_0"; "e0x10"; "e+5"; "e-0"; "e00"; "e01" ];
        check cs "in a list" "malformed id e0x1 in attribute supers"
          (xmi_message
             (doc (package "<Class xmi.id='e1' name='A' isAbstract='false' supers='e0x1' realizes=''/>"))));
    Alcotest.test_case "the next counter takes decimal digits only" `Quick (fun () ->
        List.iter
          (fun next ->
            check cs next "malformed next counter" (xmi_message (doc ~next (package ""))))
          [ "1_000"; "+5"; "0x10"; "-1"; "" ]);
    Alcotest.test_case "character references take plain digits only" `Quick
      (fun () ->
        List.iter
          (fun src ->
            check cb src true
              (try
                 ignore (parse src);
                 false
               with Xmi.Xml_parser.Xml_error _ -> true))
          [
            "<a>&#1_0;</a>"; "<a>&#+65;</a>"; "<a>&#0x41;</a>"; "<a>&#x;</a>";
            "<a>&#-1;</a>"; "<a>&#x+41;</a>"; "<a x='&#6_5;'/>";
          ];
        check cs "leading zeros are digits" "A" (Xmi.Xml.text_content (parse "<a>&#065;</a>")));
  ]

(* ---- atomic writes ------------------------------------------------------- *)

let write_tests =
  [
    Alcotest.test_case "a failing write keeps the old file and leaves no temp"
      `Quick (fun () ->
        let dir = Filename.temp_dir "mdweave" "" in
        let path = Filename.concat dir "model.xmi" in
        Fun.protect
          ~finally:(fun () ->
            Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
            Sys.rmdir dir)
          (fun () ->
            let m = special_model () in
            Xmi.Export.write_file path m;
            let before = In_channel.with_open_bin path In_channel.input_all in
            (* an owned id bound nowhere makes the render raise *)
            let dangling =
              Mof.Model.update m (Mof.Model.root m) (fun e ->
                  match e.Mof.Element.kind with
                  | Mof.Kind.Package { owned } ->
                      Mof.Element.with_kind
                        (Mof.Kind.Package { owned = owned @ [ Mof.Id.of_int 99_999 ] })
                        e
                  | _ -> e)
            in
            check cb "raises" true
              (try
                 Xmi.Export.write_file path dangling;
                 false
               with Mof.Model.Element_not_found _ -> true);
            check cs "old bytes intact" before
              (In_channel.with_open_bin path In_channel.input_all);
            check (Alcotest.list cs) "no temp file" [ "model.xmi" ]
              (Array.to_list (Sys.readdir dir))));
  ]

(* ---- properties --------------------------------------------------------- *)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"XMI round trip on random models" ~count:50
        Gen.model_gen (fun m ->
          Mof.Model.equal m (Xmi.Import.from_string (Xmi.Export.to_string m)));
      QCheck2.Test.make ~name:"export is deterministic" ~count:30 Gen.model_gen
        (fun m -> String.equal (Xmi.Export.to_string m) (Xmi.Export.to_string m));
      QCheck2.Test.make ~name:"direct export equals the reference printer" ~count:50
        Gen.model_gen (fun m ->
          String.equal (Xmi.Export.to_string m) (Check.Xmi_ref.to_string m));
      QCheck2.Test.make ~name:"streaming import equals the reference import" ~count:50
        Gen.model_gen (fun m ->
          let s = Xmi.Export.to_string m in
          Mof.Model.equal (Xmi.Import.from_string s) (Check.Xmi_ref.of_string s));
    ]

let () =
  Alcotest.run "xmi"
    [
      ("xml", xml_tests);
      ("xml-parser", parser_tests);
      ("xml-printer", printer_tests);
      ("dtype", dtype_tests);
      ("roundtrip", xmi_tests);
      ("streaming", streaming_tests);
      ("canonical", strict_number_tests);
      ("file-write", write_tests);
      ("properties", property_tests);
    ]
