exception Xml_error of string * int

let error pos fmt = Format.kasprintf (fun s -> raise (Xml_error (s, pos))) fmt

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* The scanning helpers below are closed top-level functions: a local
   recursive function would allocate a closure on every call. Their reads
   are bounds-checked by the loop condition, hence [unsafe_get]. *)

let get = String.unsafe_get

(* [prefix] occurs at [src.[i + j ..]] from its [j]th byte on; the caller
   checks that it fits. *)
let rec same_from src i prefix j =
  j = String.length prefix
  || (get src (i + j) = get prefix j && same_from src i prefix (j + 1))

(* [prefix] occurs in [src] at [i], compared in place (no [String.sub]). *)
let occurs_at src i prefix =
  i + String.length prefix <= String.length src && same_from src i prefix 0

(* The first index at or after [i] where [marker] occurs. *)
let rec find_from src i marker =
  if i + String.length marker > String.length src then None
  else if occurs_at src i marker then Some i
  else find_from src (i + 1) marker

(* The first index of [c] in [src.[i, stop)], or [stop]. *)
let rec index_until src c i stop =
  if i >= stop || get src i = c then i else index_until src c (i + 1) stop

(* The first index of [c] or of ['&'] in [src.[i, stop)], or [stop]. *)
let rec index_or_amp src c i stop =
  if i >= stop then i
  else
    let d = get src i in
    if d = c || d = '&' then i else index_or_amp src c (i + 1) stop

(* The end of the text run at [i] (the next ['<'] or the end of [src]), or
   its one's complement when the run is whitespace-only. *)
let rec text_end src i blank =
  if i >= String.length src then if blank then lnot i else i
  else
    let c = get src i in
    if c = '<' then if blank then lnot i else i
    else text_end src (i + 1) (blank && is_space c)

(* ---- entity and character references ------------------------------------ *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The code point of the reference body [src.[i, stop)] after "&#": decimal
   digits, or hex digits after 'x'. No sign, underscore or second radix
   prefix; [-1] when malformed. Values past U+10FFFF saturate at 0x110000,
   so an overlong reference is reported as out of range, not wrapped. *)
let char_ref src i stop =
  let hex = i < stop && (src.[i] = 'x' || src.[i] = 'X') in
  let digit c =
    if hex then hex_digit c else if c >= '0' && c <= '9' then Char.code c - 48 else -1
  in
  let base = if hex then 16 else 10 in
  let rec digits j n =
    if j = stop then n
    else
      let d = digit src.[j] in
      if d < 0 then -1 else digits (j + 1) (min 0x110000 ((n * base) + d))
  in
  let first = if hex then i + 1 else i in
  if first = stop then -1 else digits first 0

(* Decodes the references in [src.[start, stop)] into [buf]. Errors carry
   absolute offsets into [src]. *)
let decode_into buf src start stop =
  let rec walk i =
    if i < stop then
      if src.[i] <> '&' then begin
        Buffer.add_char buf src.[i];
        walk (i + 1)
      end
      else
        let j = index_until src ';' i stop in
        if j = stop then error i "unterminated entity reference"
        else begin
          let len = j - i - 1 and at s = occurs_at src (i + 1) s in
          (if len = 3 && at "amp" then Buffer.add_char buf '&'
           else if len = 2 && at "lt" then Buffer.add_char buf '<'
           else if len = 2 && at "gt" then Buffer.add_char buf '>'
           else if len = 4 && at "quot" then Buffer.add_char buf '"'
           else if len = 4 && at "apos" then Buffer.add_char buf '\''
           else
             let entity () = String.sub src (i + 1) len in
             if len > 1 && src.[i + 1] = '#' then
               match char_ref src (i + 2) j with
               | c when c >= 0xD800 && c <= 0xDFFF ->
                   error i "character reference &%s; is a surrogate" (entity ())
               | c when c >= 0 && c <= 0x10FFFF ->
                   Buffer.add_utf_8_uchar buf (Uchar.of_int c)
               | c when c > 0x10FFFF ->
                   error i "character reference &%s; is beyond U+10FFFF" (entity ())
               | _ -> error i "malformed character reference &%s;" (entity ())
             else error i "unknown entity &%s;" (entity ()));
          walk (j + 1)
        end
  in
  walk start

(* ---- interned vocabulary -------------------------------------------------- *)

module Name = struct
  let xmi = "XMI"
  let xmi_content = "XMI.content"
  let xmi_id = "xmi.id"
  let model = "Model"
  let package = "Package"
  let class_ = "Class"
  let interface = "Interface"
  let attribute = "Attribute"
  let operation = "Operation"
  let parameter = "Parameter"
  let association = "Association"
  let association_end = "AssociationEnd"
  let generalization = "Generalization"
  let dependency = "Dependency"
  let constraint_ = "Constraint"
  let constraint_body = "Constraint.body"
  let enumeration = "Enumeration"
  let literal = "Literal"
  let stereotype = "Stereotype"
  let tagged_value = "TaggedValue"
  let name = "name"
  let root = "root"
  let next = "next"
  let is_abstract = "isAbstract"
  let supers = "supers"
  let realizes = "realizes"
  let type_ = "type"
  let visibility = "visibility"
  let multiplicity = "multiplicity"
  let is_derived = "isDerived"
  let is_static = "isStatic"
  let initial = "initial"
  let is_query = "isQuery"
  let direction = "direction"
  let navigable = "navigable"
  let aggregation = "aggregation"
  let child = "child"
  let parent = "parent"
  let client = "client"
  let supplier = "supplier"
  let language = "language"
  let constrained = "constrained"
  let tag = "tag"
  let value = "value"

  let all =
    [
      xmi; xmi_content; xmi_id; model; package; class_; interface; attribute;
      operation; parameter; association; association_end; generalization;
      dependency; constraint_; constraint_body; enumeration; literal;
      stereotype; tagged_value; name; root; next; is_abstract; supers;
      realizes; type_; visibility; multiplicity; is_derived; is_static;
      initial; is_query; direction; navigable; aggregation; child; parent;
      client; supplier; language; constrained; tag; value;
    ]

  (* Vocabulary by length, so a lookup compares a handful of candidates. *)
  let by_length =
    let longest = List.fold_left (fun n s -> max n (String.length s)) 0 all in
    let table = Array.make (longest + 1) [] in
    List.iter (fun s -> table.(String.length s) <- s :: table.(String.length s)) all;
    table

  (* Interned names make the physical test hit for every vocabulary
     lookup; the content test keeps it correct for any other string. *)
  let equal a b = a == b || (String.length a = String.length b && String.equal a b)

  (* the caller passes a bucket of strings of length [len], which fit *)
  let rec find src start len = function
    | [] -> String.sub src start len
    | s :: rest -> if same_from src start s 0 then s else find src start len rest

  (* The shared constant spelled [src.[start, stop)], or a fresh copy. *)
  let intern src start stop =
    let len = stop - start in
    if len < Array.length by_length then find src start len by_length.(len)
    else String.sub src start len
end

(* ---- the pull lexer ------------------------------------------------------- *)

type token = Open | Close | Data | Eof

type lexer = {
  src : string;
  mutable pos : int;
  mutable started : bool;  (** the root's start tag has been read *)
  mutable open_tags : string list;  (** innermost first *)
  mutable pending_close : bool;  (** the last [Open] was [<t/>] *)
  mutable tag : string;
  mutable n_attrs : int;
  mutable names : string array;
  mutable starts : int array;  (** raw (still escaped) value spans *)
  mutable stops : int array;
  mutable plain : bool array;  (** the raw value holds no ['&'] *)
  mutable text_start : int;
  mutable text_stop : int;
  mutable text_plain : bool;  (** CDATA, or text without ['&'] *)
  scratch : Buffer.t;  (** validates references nobody reads *)
}

let lexer src =
  {
    src;
    pos = 0;
    started = false;
    open_tags = [];
    pending_close = false;
    tag = "";
    n_attrs = 0;
    names = Array.make 8 "";
    starts = Array.make 8 0;
    stops = Array.make 8 0;
    plain = Array.make 8 true;
    text_start = 0;
    text_stop = 0;
    text_plain = true;
    scratch = Buffer.create 64;
  }

let source lx = lx.src
let tag lx = lx.tag
let attr_start lx i = lx.starts.(i)
let attr_stop lx i = lx.stops.(i)
let attr_plain lx i = lx.plain.(i)

let rec find_attr_from lx name i =
  if i = lx.n_attrs then -1
  else if Name.equal lx.names.(i) name then i
  else find_attr_from lx name (i + 1)

let find_attr lx name = find_attr_from lx name 0

let decode lx start stop plain =
  if plain then String.sub lx.src start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    decode_into buf lx.src start stop;
    Buffer.contents buf
  end

let attr_value lx i = decode lx lx.starts.(i) lx.stops.(i) lx.plain.(i)

let attr_is lx i s =
  if lx.plain.(i) then
    lx.stops.(i) - lx.starts.(i) = String.length s && occurs_at lx.src lx.starts.(i) s
  else String.equal (attr_value lx i) s

let attrs lx = List.init lx.n_attrs (fun i -> (lx.names.(i), attr_value lx i))
let text lx = decode lx lx.text_start lx.text_stop lx.text_plain

let at_end lx = lx.pos >= String.length lx.src
let looking_at lx prefix = occurs_at lx.src lx.pos prefix

let rec spaces_end src i =
  if i < String.length src && is_space (get src i) then spaces_end src (i + 1) else i

let rec name_end src i =
  if i < String.length src && is_name_char (get src i) then name_end src (i + 1) else i

let skip_spaces lx = lx.pos <- spaces_end lx.src lx.pos

let expect_char lx c =
  if at_end lx then error lx.pos "expected %C at end of input" c
  else if lx.src.[lx.pos] = c then lx.pos <- lx.pos + 1
  else error lx.pos "expected %C, found %C" c lx.src.[lx.pos]

(* Advances over a name; returns where it started. *)
let scan_name lx =
  let start = lx.pos in
  if at_end lx || not (is_name_start lx.src.[lx.pos]) then error lx.pos "expected a name";
  lx.pos <- name_end lx.src (lx.pos + 1);
  start

(* A reference nobody reads must still be well-formed. *)
let validate lx start stop =
  Buffer.clear lx.scratch;
  decode_into lx.scratch lx.src start stop

let skip_comment lx =
  match find_from lx.src (lx.pos + 4) "-->" with
  | Some stop -> lx.pos <- stop + 3
  | None -> error lx.pos "unterminated comment"

let skip_pi lx =
  match find_from lx.src (lx.pos + 2) "?>" with
  | Some stop -> lx.pos <- stop + 2
  | None -> error lx.pos "unterminated processing instruction"

(* Whitespace, comments and processing instructions before and after the
   root element. *)
let rec skip_misc lx =
  skip_spaces lx;
  if looking_at lx "<!--" then begin
    skip_comment lx;
    skip_misc lx
  end
  else if looking_at lx "<?" then begin
    skip_pi lx;
    skip_misc lx
  end

let push_attr lx name start stop plain =
  let i = lx.n_attrs in
  if i = Array.length lx.names then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    lx.names <- grow lx.names "";
    lx.starts <- grow lx.starts 0;
    lx.stops <- grow lx.stops 0;
    lx.plain <- grow lx.plain true
  end;
  lx.names.(i) <- name;
  lx.starts.(i) <- start;
  lx.stops.(i) <- stop;
  lx.plain.(i) <- plain;
  lx.n_attrs <- i + 1

let scan_attr_value lx name =
  let src = lx.src in
  let quote = if at_end lx then '\000' else src.[lx.pos] in
  if quote <> '"' && quote <> '\'' then error lx.pos "expected a quoted attribute value";
  let start = lx.pos + 1 in
  let len = String.length src in
  let first = index_or_amp src quote start len in
  let plain = first = len || get src first = quote in
  let stop = if plain then first else index_until src quote first len in
  if stop = len then error start "unterminated attribute value";
  lx.pos <- stop + 1;
  if not plain then validate lx start stop;
  push_attr lx name start stop plain

let rec attributes lx =
  skip_spaces lx;
  if (not (at_end lx)) && is_name_start lx.src.[lx.pos] then begin
    let start = scan_name lx in
    let name = Name.intern lx.src start lx.pos in
    skip_spaces lx;
    expect_char lx '=';
    skip_spaces lx;
    scan_attr_value lx name;
    attributes lx
  end

(* At '<' of a start tag: reads the tag and its attributes. *)
let start_tag lx =
  expect_char lx '<';
  let start = scan_name lx in
  let tag = Name.intern lx.src start lx.pos in
  lx.tag <- tag;
  lx.n_attrs <- 0;
  attributes lx;
  skip_spaces lx;
  if looking_at lx "/>" then begin
    lx.pos <- lx.pos + 2;
    lx.pending_close <- true
  end
  else expect_char lx '>';
  lx.open_tags <- tag :: lx.open_tags;
  Open

let end_tag lx enclosing rest =
  lx.pos <- lx.pos + 2;
  let start = scan_name lx in
  let stop = lx.pos in
  skip_spaces lx;
  expect_char lx '>';
  if not (stop - start = String.length enclosing && occurs_at lx.src start enclosing) then
    error lx.pos "mismatched closing tag </%s> for <%s>"
      (String.sub lx.src start (stop - start))
      enclosing;
  lx.tag <- enclosing;
  lx.open_tags <- rest;
  Close

let rec content lx enclosing rest =
  let src = lx.src in
  let len = String.length src in
  if lx.pos >= len then error lx.pos "unexpected end of input inside <%s>" enclosing
  else if src.[lx.pos] <> '<' then begin
    let start = lx.pos in
    let stop = text_end src start true in
    if stop < 0 then begin
      lx.pos <- lnot stop;
      content lx enclosing rest
    end
    else begin
      lx.pos <- stop;
      let plain = index_until src '&' start stop = stop in
      if not plain then validate lx start stop;
      lx.text_start <- start;
      lx.text_stop <- stop;
      lx.text_plain <- plain;
      Data
    end
  end
  else if lx.pos + 1 < len && src.[lx.pos + 1] = '/' then end_tag lx enclosing rest
  else if lx.pos + 1 < len && is_name_start src.[lx.pos + 1] then start_tag lx
  else if looking_at lx "<!--" then begin
    skip_comment lx;
    content lx enclosing rest
  end
  else if looking_at lx "<![CDATA[" then begin
    let start = lx.pos + 9 in
    match find_from src start "]]>" with
    | None -> error lx.pos "unterminated CDATA section"
    | Some stop ->
        lx.pos <- stop + 3;
        lx.text_start <- start;
        lx.text_stop <- stop;
        lx.text_plain <- true;
        Data
  end
  else if looking_at lx "<?" then begin
    skip_pi lx;
    content lx enclosing rest
  end
  else start_tag lx

let next lx =
  if lx.pending_close then begin
    lx.pending_close <- false;
    match lx.open_tags with
    | tag :: rest ->
        lx.tag <- tag;
        lx.open_tags <- rest;
        Close
    | [] -> assert false
  end
  else
    match lx.open_tags with
    | enclosing :: rest -> content lx enclosing rest
    | [] when not lx.started ->
        skip_misc lx;
        if at_end lx || lx.src.[lx.pos] <> '<' then error lx.pos "expected a root element";
        lx.started <- true;
        start_tag lx
    | [] ->
        skip_misc lx;
        if lx.pos < String.length lx.src then
          error lx.pos "trailing content after root element";
        Eof

let rec skip_from lx depth =
  match next lx with
  | Open -> skip_from lx (depth + 1)
  | Close -> if depth > 0 then skip_from lx (depth - 1)
  | Data -> skip_from lx depth
  | Eof -> ()

let skip lx = skip_from lx 0

(* ---- the DOM, as a fold over the lexer ----------------------------------- *)

let parse src =
  let lx = lexer src in
  let rec element () =
    let tag = lx.tag and attrs = attrs lx in
    let rec children acc =
      match next lx with
      | Open ->
          let child = element () in
          children (child :: acc)
      | Data -> children (Xml.text (text lx) :: acc)
      | Close | Eof -> Xml.elem ~attrs tag (List.rev acc)
    in
    children []
  in
  ignore (next lx : token);
  let root = element () in
  ignore (next lx : token);
  root
