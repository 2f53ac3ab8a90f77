(** Market-side tenant descriptors: a utility/budget curve over
    replicas plus the certified per-replica resource footprint of the
    tenant's extension program. A market tenant is what bids in the
    auction; the admitted instance is still an ordinary
    {!Control.Tenants.tenant} placed through the plan/execute split. *)

(** SLA class: [Protected] tenants have paid for a reservation and are
    never preempted; [Best_effort] tenants may be evicted when a
    higher-density bid arrives and capacity is exhausted. *)
type sla = Best_effort | Protected

val sla_to_string : sla -> string

type t = {
  mt_name : string; (* = the program's owner *)
  mt_sla : sla;
  mt_budget : float; (* max spend per clearing round, in price units *)
  mt_weight : float; (* utility scale: u(q) = weight · ln(1+q) *)
  mt_max_replicas : int;
  mt_footprint : Targets.Resource.t; (* certified per-replica demand *)
  mt_program : Flexbpf.Ast.program;
  mt_cert : Flexbpf.Analysis.certificate;
      (* the program's certificate: admission takes it as is *)
}

(** The cost of one replica of [footprint] per round when every price
    sits at the default floor — the unit tenant money is denominated
    in. *)
val floor_rent : Targets.Resource.t -> float

(** Build a market tenant around an extension program; the footprint is
    the certified whole-program resource estimate
    ({!Flexbpf.Analysis.certify}), so an uncertifiable program cannot
    even bid. Name defaults to the program owner.

    [weight] and [budget] are expressed in multiples of the tenant's
    own {!floor_rent}, which makes demand scale-free: the first replica
    is worth [weight] floor rents (so a tenant bids while the
    congestion multiple over floor prices stays below [weight],
    whatever its footprint's absolute size), and per-round spend is
    capped at [budget] floor rents. *)
val create :
  ?sla:sla -> ?budget:float -> ?weight:float -> ?max_replicas:int ->
  Flexbpf.Ast.program -> (t, Flexbpf.Analysis.rejection) result

(** Diminishing-returns utility of running [q] replicas:
    weight · ln(1+q). *)
val utility : t -> int -> float

(** Value of the (q+1)-th replica: u(q+1) − u(q), strictly decreasing
    in q. *)
val marginal_utility : t -> int -> float

(** Replicas demanded when one replica rents for [unit_cost] per round:
    the largest q ≤ max_replicas whose marginal utility still exceeds
    the price and whose total rent fits the budget. 0 means "priced
    out" — the tenant abstains this round. *)
val demand : t -> unit_cost:float -> int

type bid = {
  bid_name : string;
  bid_replicas : int; (* demanded at the quoted price; >= 1 *)
  bid_value : float; (* willingness to pay: min(budget, u(q)) *)
  bid_cost : float; (* rent of q replicas at the quoted price *)
  bid_density : float; (* value per unit cost — the auction's ranking key *)
}

(** The tenant's bid at a quoted per-replica rent; [None] when priced
    out (demand 0). *)
val bid : t -> unit_cost:float -> bid option

val pp_bid : Format.formatter -> bid -> unit
