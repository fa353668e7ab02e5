(* Seeded inputs. Every model, target set, edit and loop count the
   benchmark feeds the program is drawn here from the run's seed, so the
   same seed always gives the same inputs and the program only ever sees
   what this module generated. *)

let rng seed salt = Random.State.make [| seed; salt; 0x6d64 |]

let nouns =
  [| "Account"; "Order"; "Invoice"; "Customer"; "Ledger"; "Ticket";
     "Shipment"; "Quote"; "Policy"; "Claim"; "Booking"; "Payment" |]

(* The concerns of the Fig. 2 chain, with the stereotype each one puts on a
   target class — the reference the output checks compare against. *)
let mark = function
  | "distribution" -> "remote"
  | "transactions" -> "transactional"
  | "security" -> "secured"
  | "concurrency" -> "synchronized"
  | "logging" -> "logged"
  | c -> invalid_arg ("Inputs.mark: " ^ c)

let target_param = function
  | "distribution" -> "remote"
  | "transactions" -> "transactional"
  | "security" -> "secured"
  | "concurrency" -> "guarded"
  | "logging" -> "targets"
  | c -> invalid_arg ("Inputs.target_param: " ^ c)

let names_value names =
  Transform.Params.V_list
    (List.map (fun n -> Transform.Params.V_ident n) names)

type pim = { model : Mof.Model.t; classes : string array }

(* A platform-independent model of [classes] classes spread over
   [classes / 100] packages (at least one). Every class has 2–4 attributes
   and the three integer operations [m0], [m1], [m2] with one integer
   parameter each — 13 elements per class on average. Class names are
   drawn from [rng] unless given. *)
let class_names rng classes =
  Array.init classes (fun i ->
      Printf.sprintf "%s%d" nouns.(Random.State.int rng (Array.length nouns)) i)

let pim ?names rng ~name ~classes =
  let m = Mof.Model.create ~name in
  let root = Mof.Model.root m in
  let npk = max 1 (classes / 100) in
  let m, pkgs =
    List.fold_left
      (fun (m, acc) i ->
        let m, p = Mof.Builder.add_package m ~owner:root ~name:(Printf.sprintf "p%d" i) in
        (m, p :: acc))
      (m, []) (List.init npk Fun.id)
  in
  let pkgs = Array.of_list (List.rev pkgs) in
  let names =
    match names with Some n -> n | None -> class_names rng classes
  in
  let add_class m i =
    let m, cls = Mof.Builder.add_class m ~owner:pkgs.(i mod npk) ~name:names.(i) in
    let attrs = 2 + Random.State.int rng 3 in
    let m =
      List.fold_left
        (fun m j ->
          let typ =
            if Random.State.bool rng then Mof.Kind.Dt_integer
            else Mof.Kind.Dt_string
          in
          fst (Mof.Builder.add_attribute m ~cls ~name:(Printf.sprintf "f%d" j) ~typ))
        m (List.init attrs Fun.id)
    in
    List.fold_left
      (fun m j ->
        let m, op = Mof.Builder.add_operation m ~owner:cls ~name:(Printf.sprintf "m%d" j) in
        let m, _ = Mof.Builder.add_parameter m ~op ~name:"x" ~typ:Mof.Kind.Dt_integer in
        Mof.Builder.set_result m ~op ~typ:Mof.Kind.Dt_integer)
      m [ 0; 1; 2 ]
  in
  let m = ref m in
  for i = 0 to classes - 1 do
    m := add_class !m i
  done;
  { model = !m; classes = names }

(* [k] distinct elements of [a], in random order. *)
let sample rng k a =
  let a = Array.copy a in
  let n = Array.length a in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
