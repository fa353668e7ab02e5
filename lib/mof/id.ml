type t = int

let of_int n = n
let to_int id = id
let to_string id = "e" ^ string_of_int id

(* Canonical spellings only: ['e'] then decimal digits, no leading zero
   (but ["e0"]), no sign, underscore or radix prefix, and no overflow — so
   [of_substring] accepts exactly the strings {!to_string} produces. *)
let rec digits s i stop n =
  if i = stop then Some n
  else
    let c = s.[i] in
    if c < '0' || c > '9' then None
    else
      let d = Char.code c - 48 in
      if n > (max_int - d) / 10 then None else digits s (i + 1) stop ((n * 10) + d)

let of_substring s ~pos ~len =
  if len < 2 || s.[pos] <> 'e' || (s.[pos + 1] = '0' && len > 2) then None
  else digits s (pos + 1) (pos + len) 0

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

let equal = Int.equal
let compare = Int.compare
let hash id = id
let pp ppf id = Format.pp_print_string ppf (to_string id)

module Map = Map.Make (Int)
module Set = Set.Make (Int)
