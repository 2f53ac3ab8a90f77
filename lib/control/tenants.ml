(** Tenant lifecycle management (§3's deployment scenario).

    "Tenants provide extension programs that are dynamically injected
    into and removed from the network. ... The extensions are admitted
    by the network owner after access control validation. Extension
    programs are isolated ... via VLAN-based isolation. Tenant arrivals
    trigger the generation of new VLAN configurations from the control
    plane, as well as infrastructure program changes to accommodate the
    new extensions. Departures achieve opposite effects."

    Admission certifies bounded execution, then runs
    [Compose.arrival] (namespace, access control, VLAN guard) with the
    next free VLAN and live-patches the deployment; departure runs
    [Compose.departure]. No other code builds tenant patches. *)

open Flexbpf

type tenant = {
  tenant_name : string;
  vlan : int;
  arrived_at : float;
  element_names : string list;
  diagnostics : Diagnostics.t list;
      (* sub-Error verifier findings recorded at admission *)
  parallel : Dataflow.Shard_safety.t;
      (* shard-safety certificate: how the tenant's maps shard *)
  static_cost : Dataflow.Cost.t; (* certified per-packet WCET *)
  shard_affinity : int option;
      (* [Some s]: every instance of this tenant's maps must live in
         shard [s]; [None]: replicate freely *)
}

type t = {
  sim : Netsim.Sim.t;
  deployment : Compiler.Incremental.deployment;
  shards : int; (* shard count placement draws from *)
  mutable tenants : tenant list;
  mutable next_vlan : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable departed : int;
  mutable clock : unit -> float;
      (* wall clock behind the admission-latency histogram; injectable
         so benches can use a high-resolution timer without this
         library depending on unix *)
}

let create ?(shards = 1) ~sim deployment =
  if shards <= 0 then invalid_arg "Tenants.create: shards must be positive";
  { sim; deployment; shards; tenants = []; next_vlan = 100;
    admitted = 0; rejected = 0; departed = 0; clock = Sys.time }

let set_clock t clock = t.clock <- clock

(* FNV-1a over the tenant name: [Hashtbl.hash] is fine within one
   binary, but placement lands in reports and tests compare them across
   builds, so the hash must be pinned down to the algorithm. *)
let stable_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

(* Certificate-driven placement (the PR-6 [Parallel_safety] verdict):
   [Exclusive]-map tenants are pinned to one shard — chosen by stable
   hash of the name so placement survives re-admission in any order —
   while [Read_only]/[Commutative] tenants replicate across all shards
   and merge by sum. *)
let place t ~tenant_name (cert : Dataflow.Shard_safety.t) =
  match cert.Dataflow.Shard_safety.ps_verdict with
  | Dataflow.Shard_safety.Read_only | Dataflow.Shard_safety.Commutative -> None
  | Dataflow.Shard_safety.Exclusive -> Some (stable_hash tenant_name mod t.shards)

(* lifecycle counters mirror the record fields into the simulation's
   unified registry *)
let count t name =
  Obs.Metrics.incr (Obs.Scope.metrics (Netsim.Sim.obs t.sim)) name

(* Admission outcomes, one labelled counter series per class. Admit and
   depart record their own outcomes; [Deferred] is recorded by the
   market layer when an auction postpones a priced-out bidder. *)
type outcome = Admitted | Rejected | Preempted | Deferred

let outcome_to_string = function
  | Admitted -> "admitted"
  | Rejected -> "rejected"
  | Preempted -> "preempted"
  | Deferred -> "deferred"

let record_outcome t o =
  Obs.Metrics.incr
    (Obs.Scope.metrics (Netsim.Sim.obs t.sim))
    ~labels:[ ("outcome", outcome_to_string o) ]
    "tenants.outcome"

let observe_admit_latency t ~t0 =
  let ms = Float.max 0. ((t.clock () -. t0) *. 1000.) in
  Obs.Metrics.observe
    (Obs.Scope.metrics (Netsim.Sim.obs t.sim))
    "tenants.admit_latency_ms" ms

let find t name = List.find_opt (fun x -> x.tenant_name = name) t.tenants

type admission_error =
  | Already_present
  | Certification of Analysis.rejection
  | Access_control of Compose.violation list
  | Compilation of Compiler.Incremental.error

let pp_admission_error ppf = function
  | Already_present -> Fmt.string ppf "tenant already present"
  | Certification r -> Fmt.pf ppf "certification: %a" Analysis.pp_rejection r
  | Access_control vs ->
    Fmt.pf ppf "access control: %a"
      Fmt.(list ~sep:(any "; ") Compose.pp_violation)
      vs
  | Compilation e -> Fmt.pf ppf "compilation: %a" Compiler.Incremental.pp_error e

(** Admit a tenant extension program. On success the network has been
    live-patched and the tenant is registered. [attrs] carries extra
    span attributes (the market path tags bid/price context). *)
let admit ?(attrs = []) t (ext : Ast.program) =
  let tenant_name = ext.Ast.owner in
  let scope = Netsim.Sim.obs t.sim in
  let t0 = t.clock () in
  let result =
    Obs.Trace.with_span (Obs.Scope.trace scope) "tenant.admit"
      ~attrs:(("tenant", Obs.Trace.S tenant_name) :: attrs)
      (fun span ->
        let result =
          if find t tenant_name <> None then begin
            t.rejected <- t.rejected + 1;
            Error Already_present
          end
          else
            match Analysis.certify ext with
            | Error r ->
              t.rejected <- t.rejected + 1;
              Error (Certification r)
            | Ok cert ->
              let vlan = t.next_vlan in
              (match
                 Compose.arrival ~vlan
                   ~base:t.deployment.Compiler.Incremental.dep_prog ext
               with
               | Error violations ->
                 t.rejected <- t.rejected + 1;
                 Error (Access_control violations)
               | Ok patch ->
                 (match
                    Runtime.Reconfig.apply_patch ~obs:scope t.deployment patch
                  with
                  | Error e ->
                    t.rejected <- t.rejected + 1;
                    Error (Compilation e)
                  | Ok (report, diff) ->
                    t.next_vlan <- t.next_vlan + 1;
                    let affinity =
                      place t ~tenant_name cert.Analysis.cert_parallel
                    in
                    let tenant =
                      { tenant_name; vlan; arrived_at = Netsim.Sim.now t.sim;
                        element_names = diff.Patch.added;
                        diagnostics = cert.Analysis.cert_warnings;
                        parallel = cert.Analysis.cert_parallel;
                        static_cost = cert.Analysis.cert_cost;
                        shard_affinity = affinity }
                    in
                    let verdict =
                      Dataflow.Shard_safety.class_to_string
                        cert.Analysis.cert_parallel
                          .Dataflow.Shard_safety.ps_verdict
                    in
                    Obs.Metrics.incr
                      (Obs.Scope.metrics scope)
                      ~labels:[ ("class", verdict) ]
                      "tenants.placement";
                    (match affinity with
                     | Some s ->
                       Obs.Trace.add_attr span "shard" (Obs.Trace.I s)
                     | None ->
                       Obs.Trace.add_attr span "shard" (Obs.Trace.S "replicated"));
                    t.tenants <- tenant :: t.tenants;
                    t.admitted <- t.admitted + 1;
                    Ok (tenant, report)))
        in
        Obs.Trace.add_attr span "ok" (Obs.Trace.B (Result.is_ok result));
        result)
  in
  observe_admit_latency t ~t0;
  record_outcome t (if Result.is_ok result then Admitted else Rejected);
  count t (if Result.is_ok result then "tenants.admitted" else "tenants.rejected");
  result

(** Tenant departure: remove every element, map, and parser rule the
    tenant owns, releasing the resources. *)
type departure_error = Unknown_tenant | Departure_failed of string

let pp_departure_error ppf = function
  | Unknown_tenant -> Fmt.string ppf "unknown tenant"
  | Departure_failed s -> Fmt.pf ppf "departure failed: %s" s

let depart ?(reason = `Voluntary) t tenant_name =
  match find t tenant_name with
  | None -> Error Unknown_tenant
  | Some tenant ->
    let patch =
      Compose.departure ~owner:tenant_name
        t.deployment.Compiler.Incremental.dep_prog
    in
    let scope = Netsim.Sim.obs t.sim in
    let reason_str =
      match reason with `Voluntary -> "voluntary" | `Preempted -> "preempted"
    in
    Obs.Trace.with_span (Obs.Scope.trace scope) "tenant.depart"
      ~attrs:
        [ ("tenant", Obs.Trace.S tenant_name);
          ("reason", Obs.Trace.S reason_str) ]
      (fun span ->
        match Runtime.Reconfig.apply_patch ~obs:scope t.deployment patch with
        | Error e ->
          Obs.Trace.add_attr span "ok" (Obs.Trace.B false);
          Error
            (Departure_failed (Fmt.str "%a" Compiler.Incremental.pp_error e))
        | Ok (report, _) ->
          t.tenants <- List.filter (fun x -> x != tenant) t.tenants;
          t.departed <- t.departed + 1;
          count t "tenants.departed";
          if reason = `Preempted then record_outcome t Preempted;
          Obs.Trace.add_attr span "ok" (Obs.Trace.B true);
          Ok report)

let active_count t = List.length t.tenants

(** Cross-tenant sharable logic, surfaced as an optimization report. *)
let sharable t =
  Compose.sharable_elements t.deployment.Compiler.Incremental.dep_prog
