type t = string

(* Greedy-free wildcard matching: '*' matches any substring. *)
let matches_dp pattern name =
  let nlen = String.length name in
  (* dp.(i) = set of positions in [name] reachable after consuming the first
     [i] pattern characters; represented as a bool array. *)
  let current = Array.make (nlen + 1) false in
  current.(0) <- true;
  let step c =
    if c = '*' then begin
      (* '*' makes every position at or after the first reachable one
         reachable *)
      let reached = ref false in
      for j = 0 to nlen do
        if current.(j) then reached := true;
        current.(j) <- !reached
      done
    end
    else
      for j = nlen downto 0 do
        current.(j) <-
          (j > 0 && current.(j - 1) && name.[j - 1] = c)
      done
  in
  String.iter step pattern;
  current.(nlen)

(* Star-free patterns (most class patterns, and every literal inter-type
   target) are a plain string comparison: no DP array. *)
let matches pattern name =
  if String.contains pattern '*' then matches_dp pattern name
  else String.equal pattern name

let is_wildcard p = String.contains p '*'

type method_pattern = {
  mp_class : t;
  mp_method : t;
}

let method_pattern mp_class mp_method = { mp_class; mp_method }

let matches_method mp ~class_name ~method_name =
  matches mp.mp_class class_name && matches mp.mp_method method_name

let method_pattern_to_string mp = mp.mp_class ^ "." ^ mp.mp_method
