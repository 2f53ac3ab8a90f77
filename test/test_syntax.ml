(* Tests for the FlexBPF surface syntax: parsing, error reporting, and
   print/parse round-tripping (hand-written and property-based). *)

open Flexbpf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample =
  {|
# the tenant firewall, in surface syntax
program fw owner acme {
  header gre { proto:16, key:32 }
  parse parse_gre: ethernet -> gre
  map conn<4, 8192, stateful_table>
  map denied<1, 4, registers>

  table acl(size 512) {
    keys: ipv4.src:ternary, ipv4.dst:ternary
    action permit() { nop }
    action deny() { drop }
    default: permit()
  }

  block guard {
    if (ipv4.ttl <= 0) { drop }
    if (ipv4.src < 100) {
      conn[ipv4.src, ipv4.dst, tcp.sport, tcp.dport] = 1
    } else {
      if (!(conn[ipv4.dst, ipv4.src, tcp.dport, tcp.sport] > 0)) {
        denied[0] += 1
        drop
      }
    }
    meta.mark = (ipv4.src + 5) * 2
    repeat 3 {
      meta.probe = crc32(meta._loop_i, ipv4.src) % 64
    }
    drpc replicate(0, 1)
    forward(3)
  }
}
|}

let test_parse_sample () =
  match Syntax.load sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    Alcotest.(check string) "name" "fw" p.Ast.prog_name;
    Alcotest.(check string) "owner" "acme" p.Ast.owner;
    check_int "two maps" 2 (List.length p.Ast.maps);
    check_int "two elements" 2 (List.length p.Ast.pipeline);
    check "gre header merged with standard ones" true
      (Ast.find_header p "gre" <> None && Ast.find_header p "ipv4" <> None);
    (match Ast.find_table p "acl" with
     | Some t ->
       check_int "acl key count" 2 (List.length t.Ast.keys);
       Alcotest.(check string) "default" "permit" (fst t.Ast.default_action)
     | None -> Alcotest.fail "acl missing");
    (match Ast.find_map p "conn" with
     | Some m ->
       check_int "conn arity" 4 m.Ast.key_arity;
       check "encoding" true (m.Ast.encoding = Ast.Enc_stateful_table)
     | None -> Alcotest.fail "conn missing")

let test_parsed_program_runs () =
  match Syntax.load sample with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    let env = Interp.create_env p in
    (* unsolicited inbound from src >= 100: denied *)
    let pkt =
      Netsim.Packet.create
        [ Netsim.Packet.ethernet ~src:200L ~dst:5L ();
          Netsim.Packet.ipv4 ~src:200L ~dst:5L ();
          Netsim.Packet.tcp ~sport:80L ~dport:1234L () ]
    in
    let r = Interp.run env p pkt in
    check "firewall logic live from text" true r.Interp.verdict.Interp.dropped;
    Alcotest.(check int64) "denied counted" 1L
      (State.get (Interp.env_map env "denied") [| 0L |])

let test_parse_errors_positioned () =
  let cases =
    [ ("program x {", "expected"); (* truncated *)
      ("program x { table t { } }", "keys");
      ("program x { block b { meta = 3 } }", "expected");
      ("program x { map m<0> }", "expected");
      ("junk", "expected 'program'") ]
  in
  List.iter
    (fun (src, _hint) ->
      match Syntax.parse_program_result src with
      | Ok _ -> Alcotest.failf "should not parse: %s" src
      | Error e ->
        check "error carries a position" true
          (String.length e > 0
           && String.sub e 0 4 = "line"))
    cases

let test_ill_typed_rejected_by_load () =
  let src = "program x { block b { ghost[1] += 1 } }" in
  match Syntax.load src with
  | Ok _ -> Alcotest.fail "load should typecheck"
  | Error e -> check "mentions the map" true (String.length e > 0)

let test_division_spacing () =
  (* '/' binds into identifiers (namespaced names), so division must be
     spaced; both behaviours are exercised *)
  let ok = "program x { block b { meta.x = meta.y / 2 } }" in
  check "spaced division parses" true (Result.is_ok (Syntax.parse_program_result ok));
  let namespaced =
    "program x owner acme { map acme/m<1, 8, auto> block b { acme/m[0] += 1 } }"
  in
  check "namespaced map names parse" true
    (Result.is_ok (Syntax.parse_program_result namespaced))

let test_roundtrip_builtin_apps () =
  List.iter
    (fun (p : Ast.program) ->
      let printed = Syntax.print p in
      match Syntax.parse_program_result printed with
      | Error e ->
        Alcotest.failf "reparse of %s failed: %s\n%s" p.Ast.prog_name e printed
      | Ok p' ->
        check (p.Ast.prog_name ^ " round-trips") true
          (p.Ast.pipeline = p'.Ast.pipeline && p.Ast.maps = p'.Ast.maps
           && p.Ast.prog_name = p'.Ast.prog_name
           && p.Ast.owner = p'.Ast.owner))
    [ Apps.L2l3.program ();
      Apps.Firewall.program ();
      Apps.Cm_sketch.program ();
      Apps.Heavy_hitter.program ();
      Apps.Syn_defense.program ();
      Apps.Scrubber.program ();
      Apps.Load_balancer.program ();
      Apps.Nat.program ~public:900 ~subnet_lo:10 ~subnet_hi:20 ();
      Apps.Telemetry.program ();
      Apps.Rate_limiter.program ~rate_pps:100 ~burst:8 ();
      Apps.Congestion.program
        ~blocks:
          [ Apps.Congestion.reno_block; Apps.Congestion.dctcp_block;
            Apps.Congestion.timely_block () ]
        () ]

(* property: random programs round-trip *)

let ident_gen =
  QCheck.Gen.(
    map (fun s -> "v" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)))

let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 1000);
              map (fun f -> Ast.Meta f) ident_gen;
              return (Ast.Field ("ipv4", "src"));
              return (Ast.Field ("tcp", "dport"));
              return Ast.Time ]
        else
          oneof
            [ map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band;
                     Ast.Bor; Ast.Bxor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Neq;
                     Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Land; Ast.Lor ])
                (self (n / 2)) (self (n / 2));
              map2 (fun op e -> Ast.Un (op, e))
                (oneofl [ Ast.Not; Ast.Neg; Ast.Bnot ])
                (self (n / 2));
              map2
                (fun alg es -> Ast.Hash (alg, es))
                (oneofl [ Ast.Crc16; Ast.Crc32; Ast.Identity ])
                (list_size (int_range 1 3) (self (n / 3))) ]))

let stmt_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Ast.Nop; return Ast.Drop;
              map (fun d -> Ast.Punt d) ident_gen;
              map2 (fun m e -> Ast.Set_meta (m, e)) ident_gen (expr_gen >|= Fun.id);
              map (fun e -> Ast.Forward e) expr_gen;
              map2 (fun s args -> Ast.Call (s, args)) ident_gen
                (list_size (int_bound 2) expr_gen) ]
        in
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map3
                (fun c th el -> Ast.If (c, th, el))
                expr_gen
                (list_size (int_bound 3) (self (n / 3)))
                (list_size (int_bound 2) (self (n / 3)));
              map2 (fun k body -> Ast.Loop (1 + k, body)) (int_bound 7)
                (list_size (int_range 1 3) (self (n / 3))) ]))

let program_gen =
  QCheck.Gen.(
    map2
      (fun name blocks ->
        Builder.program ("p" ^ name)
          (List.mapi
             (fun i body -> Builder.block (Printf.sprintf "b%d" i) body)
             blocks))
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
      (list_size (int_range 1 4) (list_size (int_range 1 5) stmt_gen)))

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip" ~count:200
    (QCheck.make ~print:(fun p -> Syntax.print p) program_gen)
    (fun p ->
      match Syntax.parse_program_result (Syntax.print p) with
      | Error _ -> false
      | Ok p' -> p' = p)

let () =
  Alcotest.run "syntax"
    [ ( "parse",
        [ Alcotest.test_case "sample program" `Quick test_parse_sample;
          Alcotest.test_case "parsed program executes" `Quick
            test_parsed_program_runs;
          Alcotest.test_case "errors positioned" `Quick test_parse_errors_positioned;
          Alcotest.test_case "load typechecks" `Quick test_ill_typed_rejected_by_load;
          Alcotest.test_case "division spacing" `Quick test_division_spacing ] );
      ( "roundtrip",
        [ Alcotest.test_case "built-in apps" `Quick test_roundtrip_builtin_apps;
          QCheck_alcotest.to_alcotest prop_roundtrip ] ) ]
