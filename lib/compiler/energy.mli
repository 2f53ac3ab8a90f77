(** Energy-aware consolidation (§3.3): at low load, program elements
    consolidate onto as few devices as possible and emptied devices
    power down; at high load they spread back out. *)

(** A planned consolidation; [Runtime.Reconfig.consolidate] executes
    it. *)
type consolidation = {
  plan : Plan.t; (* one [Move] per relocated element *)
  where : (string * Targets.Device.t) list; (* the placement after it *)
  powered_off : string list; (* devices left empty, in path order *)
  watts_before : float;
  watts_after : float; (* with [powered_off] asleep *)
  snaps : (string * Targets.Resource.snapshot) list;
      (* predicted (finalized) snapshot of every path device *)
}

(** Static draw of the device set (2 W sleep power when off). *)
val total_watts : Targets.Device.t list -> float

(** Plan, over the path devices' snapshots, the draining of the
    least-utilized devices into the most-utilized ones, and the
    devices that end up empty. Pure. Deliberately ignores the
    path-order constraint — an energy/performance trade the operator
    opts into at low load. *)
val consolidate : Placement.t -> consolidation

(** Power every device back on (load rose again). *)
val expand : Targets.Device.t list -> unit
