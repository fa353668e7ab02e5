exception Xml_error of string * int

let error pos fmt = Format.kasprintf (fun s -> raise (Xml_error (s, pos))) fmt

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let unescape_entities s =
  let len = String.length s in
  let buf = Buffer.create len in
  let rec walk i =
    if i >= len then Buffer.contents buf
    else if s.[i] = '&' then (
      match String.index_from_opt s i ';' with
      | None -> error i "unterminated entity reference"
      | Some j ->
          let entity = String.sub s (i + 1) (j - i - 1) in
          (match entity with
          | "amp" -> Buffer.add_char buf '&'
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | _ when String.length entity > 1 && entity.[0] = '#' -> (
              let code =
                if entity.[1] = 'x' || entity.[1] = 'X' then
                  int_of_string_opt ("0x" ^ String.sub entity 2 (String.length entity - 2))
                else int_of_string_opt (String.sub entity 1 (String.length entity - 1))
              in
              match code with
              | Some c when c >= 0xD800 && c <= 0xDFFF ->
                  error i "character reference &%s; is a surrogate" entity
              | Some c when c >= 0 && c <= 0x10FFFF ->
                  Buffer.add_utf_8_uchar buf (Uchar.of_int c)
              | Some _ ->
                  error i "character reference &%s; is beyond U+10FFFF" entity
              | None -> error i "malformed character reference &%s;" entity)
          | _ -> error i "unknown entity &%s;" entity);
          walk (j + 1))
    else (
      Buffer.add_char buf s.[i];
      walk (i + 1))
  in
  walk 0

(* Most values hold no entity reference: those come back as they are,
   without a copy through a buffer. *)
let unescape s = if String.contains s '&' then unescape_entities s else s

type state = {
  src : string;
  mutable pos : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* [prefix] occurs in [src] at [i], compared in place (no [String.sub]). *)
let occurs_at src i prefix =
  let n = String.length prefix in
  i + n <= String.length src
  &&
  let rec from j = j = n || (src.[i + j] = prefix.[j] && from (j + 1)) in
  from 0

let looking_at st prefix = occurs_at st.src st.pos prefix

(* The first index at or after [i] where [marker] occurs. *)
let rec find_from src i marker =
  if i + String.length marker > String.length src then None
  else if occurs_at src i marker then Some i
  else find_from src (i + 1) marker

let skip_spaces st =
  while st.pos < String.length st.src && is_space st.src.[st.pos] do
    st.pos <- st.pos + 1
  done

let expect_char st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> error st.pos "expected %C, found %C" c c'
  | None -> error st.pos "expected %C at end of input" c

let parse_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> ()
  | _ -> error st.pos "expected a name");
  while
    st.pos < String.length st.src && is_name_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - start)

let parse_attr_value st =
  let quote =
    match peek st with
    | Some ('"' as q) | Some ('\'' as q) ->
        st.pos <- st.pos + 1;
        q
    | _ -> error st.pos "expected a quoted attribute value"
  in
  let start = st.pos in
  (match String.index_from_opt st.src start quote with
  | None -> error start "unterminated attribute value"
  | Some stop ->
      st.pos <- stop + 1;
      ());
  unescape (String.sub st.src start (st.pos - 1 - start))

let parse_attrs st =
  let rec loop acc =
    skip_spaces st;
    match peek st with
    | Some c when is_name_start c ->
        let name = parse_name st in
        skip_spaces st;
        expect_char st '=';
        skip_spaces st;
        let value = parse_attr_value st in
        loop ((name, value) :: acc)
    | _ -> List.rev acc
  in
  loop []

let skip_misc st =
  (* whitespace, comments, and the xml prolog before/between markup *)
  let rec loop () =
    skip_spaces st;
    if looking_at st "<!--" then begin
      match find_from st.src (st.pos + 4) "-->" with
      | Some stop ->
          st.pos <- stop + 3;
          loop ()
      | None -> error st.pos "unterminated comment"
    end
    else if looking_at st "<?" then begin
      match find_from st.src (st.pos + 2) "?>" with
      | Some stop ->
          st.pos <- stop + 2;
          loop ()
      | None -> error st.pos "unterminated processing instruction"
    end
  in
  loop ()

let is_blank s = String.for_all is_space s

let rec parse_element st =
  expect_char st '<';
  let tag = parse_name st in
  let attrs = parse_attrs st in
  skip_spaces st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Xml.elem ~attrs tag []
  end
  else begin
    expect_char st '>';
    let children = parse_content st tag in
    Xml.elem ~attrs tag children
  end

and parse_content st enclosing_tag =
  let acc = ref [] in
  let rec loop () =
    if st.pos >= String.length st.src then
      error st.pos "unexpected end of input inside <%s>" enclosing_tag
    else if looking_at st "</" then begin
      st.pos <- st.pos + 2;
      let closing = parse_name st in
      skip_spaces st;
      expect_char st '>';
      if not (String.equal closing enclosing_tag) then
        error st.pos "mismatched closing tag </%s> for <%s>" closing
          enclosing_tag
    end
    else if looking_at st "<!--" then begin
      skip_misc st;
      loop ()
    end
    else if looking_at st "<![CDATA[" then begin
      let start = st.pos + 9 in
      let stop =
        match find_from st.src start "]]>" with
        | Some i -> i
        | None -> error st.pos "unterminated CDATA section"
      in
      acc := Xml.text (String.sub st.src start (stop - start)) :: !acc;
      st.pos <- stop + 3;
      loop ()
    end
    else if looking_at st "<?" then begin
      skip_misc st;
      loop ()
    end
    else if looking_at st "<" then begin
      acc := parse_element st :: !acc;
      loop ()
    end
    else begin
      let start = st.pos in
      while st.pos < String.length st.src && st.src.[st.pos] <> '<' do
        st.pos <- st.pos + 1
      done;
      let raw = String.sub st.src start (st.pos - start) in
      if not (is_blank raw) then acc := Xml.text (unescape raw) :: !acc;
      loop ()
    end
  in
  loop ();
  List.rev !acc

let parse src =
  let st = { src; pos = 0 } in
  skip_misc st;
  if peek st <> Some '<' then error st.pos "expected a root element";
  let root = parse_element st in
  skip_misc st;
  if st.pos < String.length st.src then error st.pos "trailing content after root element";
  root
