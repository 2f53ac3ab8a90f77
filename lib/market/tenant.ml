(** Market-side tenant descriptors: utility/budget curves over replica
    counts, certified footprints, and bid computation. *)

type sla = Best_effort | Protected

let sla_to_string = function
  | Best_effort -> "best-effort"
  | Protected -> "protected"

type t = {
  mt_name : string;
  mt_sla : sla;
  mt_budget : float;
  mt_weight : float;
  mt_max_replicas : int;
  mt_footprint : Targets.Resource.t;
  mt_program : Flexbpf.Ast.program;
  mt_cert : Flexbpf.Analysis.certificate;
}

(* The floor rent of a footprint: what one replica costs per round
   when every price book sits at the (default) floor. Tenant money is
   denominated in this unit, so utility curves are scale-free — a big
   firewall and a tiny counter both stay in the market while the
   congestion multiple over floor prices is below their
   willingness-to-pay multiple. *)
let floor_rent footprint =
  Float.max 1e-9
    (Prices.default_config.Prices.cfg_floor
    *. List.fold_left
         (fun acc k -> acc +. Prices.units k footprint)
         0. Prices.all_rkinds)

let create ?(sla = Best_effort) ?(budget = 10.) ?(weight = 1.)
    ?(max_replicas = 4) (prog : Flexbpf.Ast.program) =
  if budget <= 0. then invalid_arg "Market.Tenant.create: budget must be > 0";
  if weight <= 0. then invalid_arg "Market.Tenant.create: weight must be > 0";
  if max_replicas <= 0 then
    invalid_arg "Market.Tenant.create: max_replicas must be > 0";
  match Flexbpf.Analysis.certify prog with
  | Error r -> Error r
  | Ok cert ->
    let footprint =
      Targets.Resource.of_footprint cert.Flexbpf.Analysis.cert_footprint
    in
    let par = floor_rent footprint in
    (* mt_weight is scaled so marginal_utility 0 = weight · par: the
       first replica is worth [weight] floor rents, the budget caps
       spend at [budget] floor rents per round. *)
    Ok
      { mt_name = prog.Flexbpf.Ast.owner; mt_sla = sla;
        mt_budget = budget *. par;
        mt_weight = weight *. par /. log 2.;
        mt_max_replicas = max_replicas; mt_footprint = footprint;
        mt_program = prog; mt_cert = cert }

let utility t q = t.mt_weight *. log (1. +. float_of_int (max 0 q))
let marginal_utility t q = utility t (q + 1) -. utility t q

(* Largest q with marginal_utility (q-1) >= unit_cost and
   q * unit_cost <= budget. Marginal utility is strictly decreasing, so
   a linear scan from 0 is exact (max_replicas is small). *)
let demand t ~unit_cost =
  if unit_cost <= 0. then t.mt_max_replicas
  else begin
    let q = ref 0 in
    while
      !q < t.mt_max_replicas
      && marginal_utility t !q >= unit_cost
      && float_of_int (!q + 1) *. unit_cost <= t.mt_budget
    do
      incr q
    done;
    !q
  end

type bid = {
  bid_name : string;
  bid_replicas : int;
  bid_value : float;
  bid_cost : float;
  bid_density : float;
}

let bid t ~unit_cost =
  let q = demand t ~unit_cost in
  if q = 0 then None
  else begin
    let value = Float.min t.mt_budget (utility t q) in
    let cost = float_of_int q *. unit_cost in
    Some
      { bid_name = t.mt_name; bid_replicas = q; bid_value = value;
        bid_cost = cost; bid_density = value /. Float.max 1e-9 cost }
  end

let pp_bid ppf b =
  Fmt.pf ppf "%s: q=%d value=%.3f cost=%.3f density=%.2f" b.bid_name
    b.bid_replicas b.bid_value b.bid_cost b.bid_density
