(* The expected answers a run is checked against, in the shape a client
   reads them: the result object of a done job. *)

module I = Topoguard.Impact
module J = Obs.Json
module Q = Numeric.Rat

(* [exact] prints rationals in full; the service prints 6 decimals *)
let of_outcome ?(exact = false) (o : I.outcome) =
  let num v = if exact then Q.to_string v else Q.to_decimal_string ~digits:6 v in
  let ints l = J.List (List.map (fun i -> J.Int (i + 1)) l) in
  match o with
  | I.Attack_found s ->
    let v = s.I.vector in
    J.Obj
      [
        ("outcome", J.String "attack_found");
        ("candidates", J.Int s.I.candidates);
        ("base_cost", J.String (num s.I.base_cost));
        ("threshold", J.String (num s.I.threshold));
        ( "poisoned_cost",
          match s.I.poisoned_cost with Some c -> J.String (num c) | None -> J.Null );
        ("excluded", ints v.Attack.Vector.excluded);
        ("included", ints v.Attack.Vector.included);
        ("altered", ints v.Attack.Vector.altered);
        ("buses", ints v.Attack.Vector.buses);
      ]
  | I.No_attack { candidates } ->
    J.Obj [ ("outcome", J.String "no_attack"); ("candidates", J.Int candidates) ]
  | I.Base_infeasible e ->
    J.Obj [ ("outcome", J.String "base_infeasible"); ("error", J.String e) ]

(* the deliberate fault the self-test injects: an altered cost string
   when the answer has one, an altered candidate count otherwise *)
let corrupt = function
  | J.Obj fields when List.mem_assoc "poisoned_cost" fields ->
    J.Obj
      (List.map
         (function
           | "poisoned_cost", J.String s -> ("poisoned_cost", J.String (s ^ "1"))
           | kv -> kv)
         fields)
  | J.Obj fields ->
    J.Obj
      (List.map
         (function
           | "candidates", J.Int n -> ("candidates", J.Int (n + 1))
           | kv -> kv)
         fields)
  | j -> J.List [ j ]
