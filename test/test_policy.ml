(* The policy layer: FDD normalization against the denotational
   semantics, parser/printer round-trips, and the differential harness
   proving that both lowered shapes (table form with installed rules,
   block form with nested Ifs) agree with the policy semantics
   packet-for-packet. Ends with end-to-end deploys: atomic two-version
   installation on devices and tenant admission of policy terms. *)

module PA = Policy.Ast
module PS = Policy.Sem

let to_alcotest t =
  (* seed the qcheck runs so the differential harness is deterministic *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

(* -- Generators --------------------------------------------------------- *)

let all_fields =
  [ PA.Sw; PA.Pt; PA.Vlan; PA.Eth_src; PA.Eth_dst; PA.Ip_src; PA.Ip_dst;
    PA.Proto; PA.Tp_src; PA.Tp_dst ]

(* a small value universe so random tests and packets collide often *)
let value_gen = QCheck.Gen.map Int64.of_int (QCheck.Gen.int_bound 3)

let field_gen = QCheck.Gen.oneofl all_fields

let mod_field_gen =
  QCheck.Gen.oneofl (List.filter (fun f -> f <> PA.Sw) all_fields)

(* cap term sizes: star/seq normalization over a 10-field diagram is
   super-linear, and a handful of connectives already exercises every
   code path (leaf merge, branch re-threading, fixpoint) *)
let pred_gen =
  QCheck.Gen.sized_size (QCheck.Gen.int_bound 8)
  @@ QCheck.Gen.fix (fun self n ->
         let open QCheck.Gen in
         if n <= 0 then
           oneof
             [ return PA.True; return PA.False;
               map2 (fun f v -> PA.Test (f, v)) field_gen value_gen ]
         else
           frequency
             [ (1, map2 (fun f v -> PA.Test (f, v)) field_gen value_gen);
               (2, map2 (fun a b -> PA.And (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> PA.Or (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun a -> PA.Neg a) (self (n - 1))) ])

let pol_gen =
  QCheck.Gen.sized_size (QCheck.Gen.int_bound 10)
  @@ QCheck.Gen.fix (fun self n ->
         let open QCheck.Gen in
         if n <= 0 then
           oneof
             [ map (fun p -> PA.Filter p) (pred_gen |> map (fun p -> p));
               map2 (fun f v -> PA.Mod (f, v)) mod_field_gen value_gen ]
         else
           frequency
             [ (2, map (fun p -> PA.Filter p) pred_gen);
               (2, map2 (fun f v -> PA.Mod (f, v)) mod_field_gen value_gen);
               (3, map2 (fun a b -> PA.Union (a, b)) (self (n / 2)) (self (n / 2)));
               (3, map2 (fun a b -> PA.Seq (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun a -> PA.Star a) (self (n / 3))) ])

let pol_arb =
  QCheck.make ~print:Policy.Syntax.print
    (QCheck.Gen.map (fun p -> p) pol_gen)

let packet_gen =
  QCheck.Gen.map
    (fun vs -> PS.of_list (List.combine all_fields vs))
    (QCheck.Gen.list_repeat (List.length all_fields) value_gen)

let packet_print p = Format.asprintf "%a" PS.pp_packet p

let pol_packet_arb =
  QCheck.make
    ~print:(fun (p, pkt) -> Policy.Syntax.print p ^ " / " ^ packet_print pkt)
    QCheck.Gen.(pair pol_gen packet_gen)

(* -- FDD vs denotational semantics -------------------------------------- *)

let prop_fdd_agrees_with_sem =
  QCheck.Test.make ~name:"fdd normalization preserves the semantics"
    ~count:500 pol_packet_arb (fun (pol, pkt) ->
      match Policy.Fdd.of_pol pol with
      | exception Policy.Fdd.Star_diverged -> true
      | fdd ->
        let expected = PS.eval pol pkt in
        let got = Policy.Fdd.eval fdd pkt in
        expected = got)

(* equal FDDs are decidable semantic equality: p + p == p, and
   sequencing with id is invisible *)
let prop_fdd_union_idempotent =
  QCheck.Test.make ~name:"fdd: p + p normalizes to p" ~count:300 pol_arb
    (fun pol ->
      match Policy.Fdd.of_pol pol with
      | exception Policy.Fdd.Star_diverged -> true
      | fdd -> Policy.Fdd.equal (Policy.Fdd.union fdd fdd) fdd)

let prop_fdd_seq_id =
  QCheck.Test.make ~name:"fdd: p; id normalizes to p" ~count:300 pol_arb
    (fun pol ->
      match Policy.Fdd.of_pol (PA.Seq (pol, PA.id)) with
      | exception Policy.Fdd.Star_diverged -> true
      | fdd ->
        (match Policy.Fdd.of_pol pol with
         | exception Policy.Fdd.Star_diverged -> true
         | direct -> Policy.Fdd.equal fdd direct))

(* -- Concrete syntax ---------------------------------------------------- *)

let prop_syntax_roundtrip =
  QCheck.Test.make ~name:"printer/parser round-trip" ~count:500 pol_arb
    (fun pol -> PA.equal_pol (Policy.Syntax.parse (Policy.Syntax.print pol)) pol)

let test_parse_errors () =
  let bad input =
    match Policy.Syntax.parse_result input with
    | Ok _ -> Alcotest.failf "parsed: %s" input
    | Error _ -> ()
  in
  bad "";
  bad "fwd";
  bad "filter pt == 1";
  bad "pt := 1 extra";
  bad "filter unknown.field = 3";
  bad "(fwd 1";
  bad "fwd 1 ; ; fwd 2"

let test_parse_comments () =
  let p =
    Policy.Syntax.parse "# a comment\nfilter pt = 1; fwd 2 # trailing\n"
  in
  Alcotest.(check bool) "parsed through comments" true
    (PA.equal_pol p (PA.Seq (PA.Filter (PA.Test (PA.Pt, 1L)), PA.fwd 2L)))

(* -- Differential: lowered FlexBPF vs the reference semantics ----------- *)

let to_netsim (pkt : PS.packet) =
  let get f = PS.get pkt f in
  let np =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:(get PA.Eth_src) ~dst:(get PA.Eth_dst) ();
        Netsim.Packet.ipv4 ~src:(get PA.Ip_src) ~dst:(get PA.Ip_dst)
          ~proto:(get PA.Proto) ();
        Netsim.Packet.tcp ~sport:(get PA.Tp_src) ~dport:(get PA.Tp_dst) () ]
  in
  Netsim.Packet.set_meta np "in_port" (get PA.Pt);
  Netsim.Packet.set_meta np "vlan_vid" (get PA.Vlan);
  np

(* did the program's run turn the packet into [out]? *)
let agrees_with (out : PS.packet) (res : Flexbpf.Interp.result) np =
  let get f = PS.get out f in
  let m name = Option.value (Netsim.Packet.meta np name) ~default:0L in
  let fld h f = Option.value (Netsim.Packet.field np h f) ~default:0L in
  (not res.Flexbpf.Interp.verdict.dropped)
  && res.Flexbpf.Interp.verdict.egress = Some (Int64.to_int (get PA.Pt))
  && m "vlan_vid" = get PA.Vlan
  && fld "ethernet" "src" = get PA.Eth_src
  && fld "ethernet" "dst" = get PA.Eth_dst
  && fld "ipv4" "src" = get PA.Ip_src
  && fld "ipv4" "dst" = get PA.Ip_dst
  && fld "ipv4" "proto" = get PA.Proto
  && fld "tcp" "sport" = get PA.Tp_src
  && fld "tcp" "dport" = get PA.Tp_dst

let run_lowered prog rules pkt =
  let env = Flexbpf.Interp.create_env prog in
  List.iter
    (fun el ->
      match el with
      | Flexbpf.Ast.Table t -> Flexbpf.Interp.register_table env t
      | Flexbpf.Ast.Block _ -> ())
    prog.Flexbpf.Ast.pipeline;
  List.iter
    (fun (tbl, rs) ->
      List.iter (Flexbpf.Interp.install_rule env tbl) rs)
    rules;
  let np = to_netsim pkt in
  let res = Flexbpf.Interp.run env prog np in
  (res, np)

(* the reference output for [pol] at switch [sw]: NetKAT's denotation
   of the policy on the packet pinned to that switch *)
let reference pol ~sw pkt =
  PS.eval pol (PS.set pkt PA.Sw sw)

let differential ~form (pol, pkt) =
  let sw = Int64.rem (PS.get pkt PA.Proto) 3L in
  (* Sw is not a real packet dimension on the wire; pin it *)
  let pkt = PS.set pkt PA.Sw sw in
  let lowered =
    match form with
    | `Table ->
      (match Policy.Compile.lower ~name:"p" ~sw pol with
       | Ok lw -> Ok (lw.Policy.Compile.lw_prog, lw.Policy.Compile.lw_rules)
       | Error e -> Error e)
    | `Block ->
      (match Policy.Compile.lower_block ~name:"p" ~sw pol with
       | Ok prog -> Ok (prog, [])
       | Error e -> Error e)
  in
  match lowered with
  | Error _ ->
    (* typed rejection (multicast, range, divergence) is a legitimate
       outcome; miscompilation is not *)
    true
  | Ok (prog, rules) ->
    let expected = reference pol ~sw pkt in
    let res, np = run_lowered prog rules pkt in
    (match expected with
     | [] ->
       res.Flexbpf.Interp.verdict.dropped
       || res.Flexbpf.Interp.verdict.egress = None
     | [ out ] -> agrees_with out res np
     | _ :: _ :: _ ->
       (* a multicast leaf must have been rejected at lowering *)
       false)

let prop_table_differential =
  QCheck.Test.make
    ~name:"lowered table+rules agree with the policy semantics" ~count:400
    pol_packet_arb
    (differential ~form:`Table)

let prop_block_differential =
  QCheck.Test.make
    ~name:"lowered block agrees with the policy semantics" ~count:400
    pol_packet_arb
    (differential ~form:`Block)

(* -- Typed lowering errors ---------------------------------------------- *)

let test_lowering_errors () =
  let expect_err name pol pred =
    match Policy.Compile.lower ~name:"p" ~sw:0L pol with
    | Ok _ -> Alcotest.failf "%s: lowered" name
    | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: wrong error %s" name
          (Policy.Compile.error_to_string e)
  in
  expect_err "vlan range"
    (PA.Mod (PA.Vlan, 5000L))
    (function Policy.Compile.Value_out_of_range (PA.Vlan, _) -> true | _ -> false);
  expect_err "sw mod"
    (PA.Mod (PA.Sw, 1L))
    (function Policy.Compile.Switch_mod 1L -> true | _ -> false);
  expect_err "multicast"
    (PA.Union (PA.fwd 1L, PA.fwd 2L))
    (function Policy.Compile.Multicast (0L, 2) -> true | _ -> false);
  (match Policy.Compile.lower_block ~name:"p" (PA.Filter (PA.Test (PA.Sw, 1L))) with
   | Error Policy.Compile.Switch_dependent -> ()
   | Ok _ -> Alcotest.fail "uniform lowering accepted a switch test"
   | Error e ->
     Alcotest.failf "wrong error %s" (Policy.Compile.error_to_string e));
  (* negative values are out of range everywhere *)
  expect_err "negative"
    (PA.Filter (PA.Test (PA.Pt, -1L)))
    (function Policy.Compile.Value_out_of_range (PA.Pt, _) -> true | _ -> false)

(* slicing: specializing the FDD erases every switch test *)
let prop_slice_erases_sw =
  QCheck.Test.make ~name:"slicing erases switch tests" ~count:300 pol_arb
    (fun pol ->
      match Policy.Compile.fdd_of pol with
      | Error _ -> true
      | Ok fdd ->
        List.for_all
          (fun sw ->
            not
              (List.mem PA.Sw
                 (Policy.Fdd.test_fields (Policy.Fdd.restrict PA.Sw sw fdd))))
          [ 0L; 1L; 2L; -1L ])

(* -- End-to-end deploy -------------------------------------------------- *)

let mk_pkt ~dst ~port =
  let np =
    Netsim.Packet.create
      [ Netsim.Packet.ethernet ~src:1L ~dst:2L ();
        Netsim.Packet.ipv4 ~src:7L ~dst ();
        Netsim.Packet.tcp ~sport:80L ~dport:443L () ]
  in
  Netsim.Packet.set_meta np "in_port" port;
  Netsim.Packet.set_meta np "vlan_vid" 0L;
  np

let test_deploy_two_devices () =
  let d0 =
    Targets.Device.create ~id:"s0"
      (Targets.Arch.profile_of_kind Targets.Arch.Drmt)
  in
  let d1 =
    Targets.Device.create ~id:"s1"
      (Targets.Arch.profile_of_kind Targets.Arch.Drmt)
  in
  let pol =
    Policy.Syntax.parse
      "(filter sw = 0 and ip.dst = 1; fwd 2) + (filter sw = 1; fwd 3)"
  in
  match
    Policy.Deploy.deploy ~name:"route" ~devices:[ (d0, 0L); (d1, 1L) ] pol
  with
  | Error e ->
    Alcotest.failf "deploy: %s" (Format.asprintf "%a" Policy.Deploy.pp_error e)
  | Ok dp ->
    Alcotest.(check bool) "installed on s0" true
      (List.mem "route" (Targets.Device.installed_names d0));
    Alcotest.(check bool) "installed on s1" true
      (List.mem "route" (Targets.Device.installed_names d1));
    Alcotest.(check bool) "no open window" false (Targets.Device.is_frozen d0);
    (* s0 forwards ip.dst = 1 to port 2 and drops the rest *)
    let r = Targets.Device.exec d0 ~now_us:0L (mk_pkt ~dst:1L ~port:0L) in
    Alcotest.(check (option int)) "s0 match" (Some 2)
      r.Flexbpf.Interp.verdict.egress;
    let r = Targets.Device.exec d0 ~now_us:0L (mk_pkt ~dst:9L ~port:0L) in
    Alcotest.(check bool) "s0 default drops" true
      r.Flexbpf.Interp.verdict.dropped;
    (* s1 forwards everything to port 3 *)
    let r = Targets.Device.exec d1 ~now_us:0L (mk_pkt ~dst:9L ~port:0L) in
    Alcotest.(check (option int)) "s1 uniform" (Some 3)
      r.Flexbpf.Interp.verdict.egress;
    (* removal under one window takes both tables out *)
    (match Policy.Deploy.undeploy dp with
     | Error e -> Alcotest.failf "undeploy: %s" e
     | Ok () ->
       Alcotest.(check bool) "gone from s0" false
         (List.mem "route" (Targets.Device.installed_names d0));
       Alcotest.(check bool) "gone from s1" false
         (List.mem "route" (Targets.Device.installed_names d1)))

let test_deploy_rejects_bad_policy () =
  let d0 =
    Targets.Device.create ~id:"s0"
      (Targets.Arch.profile_of_kind Targets.Arch.Drmt)
  in
  match
    Policy.Deploy.deploy ~name:"bad" ~devices:[ (d0, 0L) ]
      (PA.Union (PA.fwd 1L, PA.fwd 2L))
  with
  | Ok _ -> Alcotest.fail "multicast policy deployed"
  | Error (Policy.Deploy.Compile_error (Policy.Compile.Multicast _)) ->
    Alcotest.(check bool) "device untouched" true
      (Targets.Device.installed_names d0 = [])
  | Error e ->
    Alcotest.failf "wrong error: %s"
      (Format.asprintf "%a" Policy.Deploy.pp_error e)

let test_flexnet_policy_deploy () =
  let net = Flexnet.create ~switches:2 () in
  let pol =
    Policy.Syntax.parse
      "(filter sw = 0; fwd 2) + (filter sw = 1; fwd 2)"
  in
  match Flexnet.deploy_policy ~name:"east" net pol with
  | Error e ->
    Alcotest.failf "deploy_policy: %s"
      (Format.asprintf "%a" Policy.Deploy.pp_error e)
  | Ok dp ->
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Targets.Device.id d ^ " has east") true
          (List.mem "east" (Targets.Device.installed_names d)))
      (Flexnet.switch_devices net);
    (match Flexnet.remove_policy net dp with
     | Error e -> Alcotest.failf "remove_policy: %s" e
     | Ok () ->
       List.iter
         (fun d ->
           Alcotest.(check bool)
             (Targets.Device.id d ^ " east removed") false
             (List.mem "east" (Targets.Device.installed_names d)))
         (Flexnet.switch_devices net))

let test_tenant_policy_admission () =
  let net = Flexnet.create ~switches:2 () in
  match Flexnet.deploy_infrastructure net with
  | Error e -> Alcotest.fail e
  | Ok _ ->
    let tenants = Flexnet.tenants_exn net in
    let pol = Policy.Syntax.parse "filter not (proto = 6 and tp.dst = 23)" in
    (* a policy tenant is an overlay block through the ordinary
       admission pipeline *)
    let lower ~owner pol =
      Policy.Compile.lower_block ~owner ~overlay:true ~name:(owner ^ "_policy")
        pol
    in
    let program =
      match lower ~owner:"acme" pol with
      | Ok p -> p
      | Error e ->
        Alcotest.failf "lower_block: %s"
          (Format.asprintf "%a" Policy.Compile.pp_error e)
    in
    (match Control.Tenants.admit tenants program with
     | Error e ->
       Alcotest.failf "admit: %s"
         (Format.asprintf "%a" Control.Tenants.pp_admission_error e)
     | Ok (tenant, _report) ->
       Alcotest.(check string) "tenant name" "acme"
         tenant.Control.Tenants.tenant_name;
       Alcotest.(check int) "active" 1 (Control.Tenants.active_count tenants);
       (* switch tests cannot ride the uniform tenant lowering *)
       (match lower ~owner:"evil" (PA.Filter (PA.Test (PA.Sw, 0L))) with
        | Error Policy.Compile.Switch_dependent -> ()
        | Ok _ -> Alcotest.fail "switch-dependent tenant lowered"
        | Error e ->
          Alcotest.failf "wrong error: %s"
            (Format.asprintf "%a" Policy.Compile.pp_error e));
       (match Control.Tenants.depart tenants "acme" with
        | Error e ->
          Alcotest.failf "depart: %s"
            (Format.asprintf "%a" Control.Tenants.pp_departure_error e)
        | Ok _ ->
          Alcotest.(check int) "departed" 0
            (Control.Tenants.active_count tenants)))

let () =
  Alcotest.run "policy"
    [ ( "fdd",
        [ to_alcotest prop_fdd_agrees_with_sem;
          to_alcotest prop_fdd_union_idempotent;
          to_alcotest prop_fdd_seq_id;
          to_alcotest prop_slice_erases_sw ] );
      ( "syntax",
        [ to_alcotest prop_syntax_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments" `Quick test_parse_comments ] );
      ( "differential",
        [ to_alcotest prop_table_differential;
          to_alcotest prop_block_differential ] );
      ( "lowering",
        [ Alcotest.test_case "typed errors" `Quick test_lowering_errors ] );
      ( "deploy",
        [ Alcotest.test_case "two devices" `Quick test_deploy_two_devices;
          Alcotest.test_case "rejects bad policy" `Quick
            test_deploy_rejects_bad_policy;
          Alcotest.test_case "flexnet facade" `Quick
            test_flexnet_policy_deploy;
          Alcotest.test_case "tenant admission" `Quick
            test_tenant_policy_admission ] ) ]
