type visibility =
  | Public
  | Private
  | Protected
  | Package_level

let visibility_to_string = function
  | Public -> "public"
  | Private -> "private"
  | Protected -> "protected"
  | Package_level -> "package"

let visibility_of_string = function
  | "public" -> Some Public
  | "private" -> Some Private
  | "protected" -> Some Protected
  | "package" -> Some Package_level
  | _ -> None

type multiplicity = {
  lower : int;
  upper : int option;
}

let mult_one = { lower = 1; upper = Some 1 }
let mult_opt = { lower = 0; upper = Some 1 }
let mult_many = { lower = 0; upper = None }
let mult_some = { lower = 1; upper = None }

let mult_to_string m =
  match m.upper with
  | None -> if m.lower = 0 then "0..*" else string_of_int m.lower ^ "..*"
  | Some u ->
      if m.lower = u then string_of_int u
      else string_of_int m.lower ^ ".." ^ string_of_int u

let mult_of_string s =
  let bound b = if b = "*" then Some None else Option.map Option.some (int_of_string_opt b) in
  match String.index_opt s '.' with
  | None ->
      if s = "*" then Some mult_many
      else
        Option.map (fun n -> { lower = n; upper = Some n }) (int_of_string_opt s)
  | Some i ->
      if i + 1 >= String.length s || s.[i + 1] <> '.' then None
      else
        let lo = String.sub s 0 i in
        let hi = String.sub s (i + 2) (String.length s - i - 2) in
        (match (int_of_string_opt lo, bound hi) with
        | Some lower, Some upper -> Some { lower; upper }
        | _, _ -> None)

let mult_valid m =
  m.lower >= 0
  &&
  match m.upper with
  | None -> true
  | Some u -> u >= m.lower

type datatype =
  | Dt_void
  | Dt_boolean
  | Dt_integer
  | Dt_real
  | Dt_string
  | Dt_ref of Id.t
  | Dt_collection of datatype

let rec datatype_refs = function
  | Dt_void | Dt_boolean | Dt_integer | Dt_real | Dt_string -> []
  | Dt_ref id -> [ id ]
  | Dt_collection dt -> datatype_refs dt

type direction =
  | Dir_in
  | Dir_out
  | Dir_inout
  | Dir_return

let direction_to_string = function
  | Dir_in -> "in"
  | Dir_out -> "out"
  | Dir_inout -> "inout"
  | Dir_return -> "return"

let direction_of_string = function
  | "in" -> Some Dir_in
  | "out" -> Some Dir_out
  | "inout" -> Some Dir_inout
  | "return" -> Some Dir_return
  | _ -> None

type aggregation =
  | Ag_none
  | Ag_shared
  | Ag_composite

let aggregation_to_string = function
  | Ag_none -> "none"
  | Ag_shared -> "shared"
  | Ag_composite -> "composite"

let aggregation_of_string = function
  | "none" -> Some Ag_none
  | "shared" -> Some Ag_shared
  | "composite" -> Some Ag_composite
  | _ -> None

type assoc_end = {
  end_name : string;
  end_type : Id.t;
  end_mult : multiplicity;
  end_navigable : bool;
  end_aggregation : aggregation;
}

type class_payload = {
  is_abstract : bool;
  attributes : Id.t list;
  operations : Id.t list;
  supers : Id.t list;
  realizes : Id.t list;
}

type t =
  | Package of { owned : Id.t list }
  | Class of class_payload
  | Interface of { operations : Id.t list }
  | Attribute of {
      attr_type : datatype;
      attr_visibility : visibility;
      attr_mult : multiplicity;
      is_derived : bool;
      is_static : bool;
      initial_value : string option;
    }
  | Operation of {
      params : Id.t list;
      op_visibility : visibility;
      is_query : bool;
      is_abstract_op : bool;
      is_static_op : bool;
    }
  | Parameter of {
      param_type : datatype;
      direction : direction;
    }
  | Association of { ends : assoc_end list }
  | Generalization of { child : Id.t; parent : Id.t }
  | Dependency of { client : Id.t; supplier : Id.t }
  | Constraint_ of {
      constrained : Id.t list;
      body : string;
      language : string;
    }
  | Enumeration of { literals : string list }

let name = function
  | Package _ -> "Package"
  | Class _ -> "Class"
  | Interface _ -> "Interface"
  | Attribute _ -> "Attribute"
  | Operation _ -> "Operation"
  | Parameter _ -> "Parameter"
  | Association _ -> "Association"
  | Generalization _ -> "Generalization"
  | Dependency _ -> "Dependency"
  | Constraint_ _ -> "Constraint"
  | Enumeration _ -> "Enumeration"

let all_names =
  [
    "Package";
    "Class";
    "Interface";
    "Attribute";
    "Operation";
    "Parameter";
    "Association";
    "Generalization";
    "Dependency";
    "Constraint";
    "Enumeration";
  ]

let refs = function
  | Package { owned } -> owned
  | Class { attributes; operations; supers; realizes; _ } ->
      attributes @ operations @ supers @ realizes
  | Interface { operations } -> operations
  | Attribute { attr_type; _ } -> datatype_refs attr_type
  | Operation { params; _ } -> params
  | Parameter { param_type; _ } -> datatype_refs param_type
  | Association { ends } -> List.map (fun e -> e.end_type) ends
  | Generalization { child; parent } -> [ child; parent ]
  | Dependency { client; supplier } -> [ client; supplier ]
  | Constraint_ { constrained; _ } -> constrained
  | Enumeration _ -> []

let ref_lists = function
  | Package { owned } -> [ owned ]
  | Class { attributes; operations; supers; realizes; _ } ->
      [ attributes; operations; supers; realizes ]
  | Interface { operations } -> [ operations ]
  | Operation { params; _ } -> [ params ]
  | Constraint_ { constrained; _ } -> [ constrained ]
  | k -> [ refs k ]

let equal (a : t) (b : t) = a = b
