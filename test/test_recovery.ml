(* Durability tests: the PIFTSNAP1 snapshot format and the recovery
   contract.

   - a seeded round-trip property: persist∘restore is the identity for
     the production and the bytemap-oracle store × provenance mode,
     checked structurally, at the byte level, and differentially — a
     restored tracker must be indistinguishable from a bytemap-oracle
     tracker that was never persisted, including on a fresh op suffix
     (windows, peaks and origin sets all have to survive the trip for
     that to hold);
   - corrupt-fixture decoding: truncation, bad magic, wrong version,
     unknown store names, non-hex pid records and provenance windows
     that disagree with the tracker's all fail with a
     positioned [Snapshot: record N] error, never a bare exception, and the
     streaming reader delivers every intact prefix record first;
   - fault-injection crash/recovery differentials: kill a shard
     consumer mid-ingest through the production Spsc abort path,
     restore the last snapshot into a fresh engine (same or different
     shard count), resume from the recorded cursors, and require the
     final tenant state to equal an uninterrupted run's;
   - the restore/evict occupancy invariant: restoring a tenant and then
     evicting it returns the shard occupancy to the survivors' baseline. *)

module Range = Pift_util.Range
module Rng = Pift_util.Rng
module Policy = Pift_core.Policy
module Store = Pift_core.Store
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance
module Event = Pift_trace.Event
module Droidbench = Pift_workloads.Droidbench
module Recorded = Pift_eval.Recorded
module Engine = Pift_service.Engine
module Ingest = Pift_service.Ingest
module Snapshot = Pift_service.Snapshot

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let app name =
  match Droidbench.find name with
  | Some a -> a
  | None -> Alcotest.failf "unknown app %s" name

(* Recordings shared across cases (recording is the slow part). *)
let recordings =
  lazy
    (List.map
       (fun n -> Recorded.record (app n))
       [ "StringConcat1"; "DirectLeak1"; "LogLeak1"; "Obfuscation1" ])

let with_tmp ~suffix f =
  let path = Filename.temp_file "pift_recovery_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* --- round-trip property -------------------------------------------------- *)

(* Tracker-level ops: sources, untaints, observed loads/stores (the
   window-driving fast path) and sink queries whose answers are the
   observable output a restore must preserve. *)
type top =
  | T_source of int * string * Range.t
  | T_untaint of int * Range.t
  | T_load of int * Range.t
  | T_store of int * Range.t
  | T_sink of int * Range.t

let top_to_string = function
  | T_source (pid, l, r) ->
      Printf.sprintf "source p%d %s %s" pid l (Range.to_string r)
  | T_untaint (pid, r) -> Printf.sprintf "untaint p%d %s" pid (Range.to_string r)
  | T_load (pid, r) -> Printf.sprintf "load p%d %s" pid (Range.to_string r)
  | T_store (pid, r) -> Printf.sprintf "store p%d %s" pid (Range.to_string r)
  | T_sink (pid, r) -> Printf.sprintf "sink p%d %s" pid (Range.to_string r)

let labels = [| "IMEI"; "GPS"; "SMS" |]

let gen_top rng =
  let pid = 1 + Rng.int rng 3 in
  match Rng.int rng 10 with
  | 0 | 1 ->
      T_source (pid, labels.(Rng.int rng (Array.length labels)), Prop.gen_range rng)
  | 2 -> T_untaint (pid, Prop.gen_range rng)
  | 3 | 4 | 5 -> T_load (pid, Prop.gen_range rng)
  | 6 | 7 | 8 -> T_store (pid, Prop.gen_range rng)
  | _ -> T_sink (pid, Prop.gen_range rng)

let gen_tops rng n =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (gen_top rng :: acc) in
  go n []

(* Per-pid instruction counters after [ops] — a pure function of the
   sequence, so a restored tracker's suffix run can resume the counters
   exactly where the persisted prefix left them. *)
let k_table ops =
  let t = Hashtbl.create 8 in
  List.iter
    (fun op ->
      match op with
      | T_load (pid, _) | T_store (pid, _) ->
          Hashtbl.replace t pid (1 + Option.value ~default:0 (Hashtbl.find_opt t pid))
      | T_source _ | T_untaint _ | T_sink _ -> ())
    ops;
  t

(* Apply [ops]; the returned strings are every observable answer
   (sink verdicts and origin sets), the currency the differential
   comparisons run on. *)
let run_ops tr ops ~seq0 ~ks =
  let out = ref [] in
  List.iteri
    (fun i op ->
      let seq = seq0 + i in
      let observe pid access =
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt ks pid) in
        Hashtbl.replace ks pid k;
        Tracker.observe tr { Event.seq; k; pid; access }
      in
      match op with
      | T_source (pid, label, r) -> Tracker.taint_source ~kind:label tr ~pid r
      | T_untaint (pid, r) -> Tracker.untaint_range tr ~pid r
      | T_load (pid, r) -> observe pid (Event.Load r)
      | T_store (pid, r) -> observe pid (Event.Store r)
      | T_sink (pid, r) ->
          out :=
            Printf.sprintf "sink p%d %s -> %b [%s]" pid (Range.to_string r)
              (Tracker.is_tainted tr ~pid r)
              (String.concat "," (Tracker.origins_of tr ~pid r))
            :: !out)
    ops;
  List.rev !out

let bytes_of_ranges ranges =
  let a = Bytes.make 1024 '\000' in
  List.iter
    (fun r ->
      for i = Range.lo r to min 1023 (Range.hi r) do
        Bytes.set a i '\001'
      done)
    ranges;
  Bytes.to_string a

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

(* [store] is the [Store.t] constructor under test: the production
   {!Store.create} or the bytemap oracle. *)
let mk_tracker ~store ~prov_on () =
  let prov = if prov_on then Some (Provenance.create ()) else None in
  Tracker.create ~store:(store ()) ?prov ()

(* One case: prefix on tracker A and on a bytemap-oracle tracker O
   (their answers must already agree — the store differential), then
   persist A, restore into a fresh B, and check three ways:
   structurally (persist B = persist A), at the byte level (the
   persisted intervals expand to exactly B's live bytes), and
   behaviourally (a fresh op suffix gives identical answers on A, B
   and O — windows, peaks, provenance and all). *)
let roundtrip_prop ~store ~prov_on ops =
  let split = max 1 (List.length ops * 3 / 5) in
  let pre = take split ops and suf = drop split ops in
  let a = mk_tracker ~store ~prov_on () in
  let o = mk_tracker ~store:Prop.bytemap_store ~prov_on () in
  let out_a = run_ops a pre ~seq0:0 ~ks:(k_table []) in
  let out_o = run_ops o pre ~seq0:0 ~ks:(k_table []) in
  if out_a <> out_o then Error "prefix diverged from bytemap oracle"
  else begin
    let p = Tracker.persist a in
    let b = mk_tracker ~store ~prov_on () in
    Tracker.restore b p;
    let p' = Tracker.persist b in
    if p' <> p then Error "persist (restore p) <> p"
    else begin
      let byte_mismatch =
        List.find_opt
          (fun pid ->
            let persisted =
              Option.value ~default:[] (List.assoc_opt pid p.Tracker.p_store)
            in
            bytes_of_ranges persisted
            <> bytes_of_ranges (Tracker.tainted_ranges b ~pid))
          [ 1; 2; 3 ]
      in
      match byte_mismatch with
      | Some pid ->
          Error (Printf.sprintf "restored bytes differ for pid %d" pid)
      | None ->
          let out_sa = run_ops a suf ~seq0:split ~ks:(k_table pre) in
          let out_sb = run_ops b suf ~seq0:split ~ks:(k_table pre) in
          let out_so = run_ops o suf ~seq0:split ~ks:(k_table pre) in
          if out_sb <> out_sa then
            Error "suffix answers: restored tracker diverged from original"
          else if out_sb <> out_so then
            Error "suffix answers: restored tracker diverged from oracle"
          else if Tracker.persist a <> Tracker.persist b then
            Error "post-suffix persisted states diverged"
          else Ok ()
    end
  end

(* Both stores x both provenance modes, 30 cases of 100 ops each. *)
let test_roundtrip_property () =
  List.iter
    (fun (impl, store) ->
      List.iter
        (fun prov_on ->
          Prop.check_gen
            ~name:
              (Printf.sprintf "snapshot roundtrip (%s, prov=%b)" impl prov_on)
            ~count:30
            ~gen:(fun rng -> gen_tops rng 100)
            ~shrink:Prop.shrink_candidates
            ~to_string:(fun ops ->
              Printf.sprintf "(%d ops): %s" (List.length ops)
                (String.concat "; " (List.map top_to_string ops)))
            (roundtrip_prop ~store ~prov_on))
        [ false; true ])
    [ ("flat", Store.create); ("bytemap", Prop.bytemap_store) ]

(* --- snapshot files: write/load identity ---------------------------------- *)

let stats_equal (a : Tracker.stats) (b : Tracker.stats) = a = b

let tenant_equal (a : Engine.tenant_snapshot) (b : Engine.tenant_snapshot) =
  (* everything but ts_shard, which legitimately differs across shard
     counts *)
  String.equal a.Engine.ts_name b.Engine.ts_name
  && a.Engine.ts_pid = b.Engine.ts_pid
  && a.Engine.ts_verdicts = b.Engine.ts_verdicts
  && stats_equal a.Engine.ts_stats b.Engine.ts_stats
  && a.Engine.ts_tainted_bytes = b.Engine.ts_tainted_bytes
  && a.Engine.ts_ranges = b.Engine.ts_ranges

let run_engine ~shards ?(with_origins = true) f =
  let recs = Lazy.force recordings in
  Engine.with_engine ~shards ~policy:Policy.default ~with_origins (fun eng ->
      let sources =
        List.mapi
          (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r)
          recs
      in
      f eng sources)

let test_write_load_identity () =
  run_engine ~shards:2 (fun eng sources ->
      Ingest.run eng sources;
      let entries = Snapshot.source_entries sources in
      let t = Snapshot.of_engine ~sources:entries eng in
      with_tmp ~suffix:".piftsnap" (fun path ->
          Snapshot.write path t;
          let t' = Snapshot.load path in
          checkb "load (write t) = t" true (t' = t);
          (* streamed record count matches the structure *)
          let n = ref 0 in
          Snapshot.iter path (fun _ -> incr n);
          checki "record count" (1 + List.length t.Snapshot.sources
                                 + List.length t.Snapshot.tenants)
            !n))

(* Engine states persist identically at any shard count: the durable
   form may not leak shard placement. *)
let test_persist_shard_free () =
  let persist_at shards =
    run_engine ~shards (fun eng sources ->
        Ingest.run eng sources;
        Engine.persist_tenants eng)
  in
  let p1 = persist_at 1 in
  checkb "persist shards=1 equals shards=2" true (p1 = persist_at 2);
  checkb "persist shards=1 equals shards=4" true (p1 = persist_at 4)

(* A record larger than the reader's chunk, and than 64 KiB, must be
   buffered whole: one tenant whose store holds 30k disjoint ranges. *)
let test_oversized_record () =
  Engine.with_engine ~shards:1 (fun eng ->
      let pid = Ingest.tenant_pid 0 and n = 30_000 in
      Engine.register_tenant eng ~pid ~name:"wide" ();
      let i = ref 0 in
      Engine.run eng (fun () ->
          if !i = n then None
          else begin
            incr i;
            Some
              (Engine.I_source
                 { pid; kind = "IMEI"; range = Range.of_len (!i * 1000) 4 })
          end);
      let t = Snapshot.of_engine eng in
      with_tmp ~suffix:".piftsnap" (fun path ->
          Snapshot.write path t;
          (* the manifest is tiny, so the tenant record holds the rest *)
          let size = In_channel.with_open_bin path In_channel.length in
          checkb "tenant record exceeds 64 KiB" true (size > 65536L);
          checkb "load (write t) = t" true (Snapshot.load path = t)))

(* --- corrupt fixtures ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let sample_snapshot_bytes f =
  run_engine ~shards:2 (fun eng sources ->
      Ingest.run eng sources;
      let entries = Snapshot.source_entries sources in
      with_tmp ~suffix:".piftsnap" (fun path ->
          Snapshot.save ~sources:entries eng path;
          f (Snapshot.load path) (read_file path)))

let positioned msg =
  String.length msg >= 16 && String.sub msg 0 16 = "Snapshot: record"

let expect_positioned_failure ~what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a positioned failure" what
  | exception Failure msg ->
      checkb
        (Printf.sprintf "%s error is positioned (%s)" what msg)
        true (positioned msg);
      msg
  | exception e ->
      Alcotest.failf "%s: bare exception %s escaped" what (Printexc.to_string e)

let test_corrupt_truncated () =
  sample_snapshot_bytes (fun t full ->
      with_tmp ~suffix:".piftsnap" (fun cut_path ->
          (* chop mid-record: prefix records stay intact, the cut one
             must fail with its record number *)
          write_file cut_path (String.sub full 0 (String.length full * 2 / 3));
          let delivered = ref [] in
          let msg =
            expect_positioned_failure ~what:"truncated" (fun () ->
                Snapshot.iter cut_path (fun r -> delivered := r :: !delivered))
          in
          checkb "mentions truncation" true
            (String.length msg > 0
            && (let has sub =
                  let n = String.length sub and m = String.length msg in
                  let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
                  go 0
                in
                has "truncated"));
          (* every intact prefix record was delivered, manifest first *)
          let delivered = List.rev !delivered in
          checkb "prefix delivered" true (List.length delivered > 0);
          (match delivered with
          | Snapshot.R_manifest m :: _ ->
              checkb "manifest intact" true (m = t.Snapshot.manifest)
          | _ -> Alcotest.fail "first delivered record is not the manifest");
          (* load also rejects it *)
          ignore
            (expect_positioned_failure ~what:"truncated load" (fun () ->
                 Snapshot.load cut_path))))

let test_corrupt_record_boundary_truncation () =
  (* Truncation at an exact record boundary reads as a clean EOF to the
     streaming layer; the manifest's expected counts must catch it. *)
  sample_snapshot_bytes (fun t _ ->
      with_tmp ~suffix:".piftsnap" (fun path ->
          let short =
            {
              t with
              Snapshot.tenants =
                take (List.length t.Snapshot.tenants - 1) t.Snapshot.tenants;
            }
          in
          Snapshot.write path short;
          let msg =
            expect_positioned_failure ~what:"boundary truncation" (fun () ->
                Snapshot.load path)
          in
          checkb
            (Printf.sprintf "count mismatch reported (%s)" msg)
            true
            (let has sub =
               let n = String.length sub and m = String.length msg in
               let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
               go 0
             in
             has "expected 4 tenant records, got 3")))

let test_corrupt_bad_magic () =
  sample_snapshot_bytes (fun _ full ->
      with_tmp ~suffix:".piftsnap" (fun path ->
          let b = Bytes.of_string full in
          Bytes.set b 0 'X';
          write_file path (Bytes.to_string b);
          let msg =
            expect_positioned_failure ~what:"bad magic" (fun () ->
                Snapshot.load path)
          in
          checks "magic error" "Snapshot: record 0: bad magic" msg;
          (* empty file: also a positioned magic failure *)
          write_file path "";
          ignore
            (expect_positioned_failure ~what:"empty file" (fun () ->
                 Snapshot.load path))))

let test_corrupt_wrong_version () =
  sample_snapshot_bytes (fun _ full ->
      with_tmp ~suffix:".piftsnap" (fun path ->
          let b = Bytes.of_string full in
          Bytes.set b 8 '7';
          write_file path (Bytes.to_string b);
          let msg =
            expect_positioned_failure ~what:"wrong version" (fun () ->
                Snapshot.load path)
          in
          checks "version error"
            "Snapshot: record 0: unsupported snapshot version '7' (want '1')"
            msg))

let test_corrupt_non_hex_pid () =
  sample_snapshot_bytes (fun _ full ->
      (* tenant 0's engine pid is 0x100000: its source record encodes
         the length-prefixed hex string "\006100000".  Poison one digit
         in place — same length, so every other record stays intact. *)
      let needle = "\006100000" in
      let idx =
        let n = String.length needle in
        let rec go i =
          if i + n > String.length full then
            Alcotest.fail "hex pid bytes not found in snapshot"
          else if String.sub full i n = needle then i
          else go (i + 1)
        in
        go 0
      in
      let b = Bytes.of_string full in
      Bytes.set b (idx + 1) 'g';
      with_tmp ~suffix:".piftsnap" (fun path ->
          write_file path (Bytes.to_string b);
          let delivered = ref 0 in
          let msg =
            expect_positioned_failure ~what:"non-hex pid" (fun () ->
                Snapshot.iter path (fun _ -> incr delivered))
          in
          checks "non-hex error"
            "Snapshot: record 2: non-hex pid record: \"g00000\"" msg;
          (* the manifest (record 1) was still delivered *)
          checki "intact prefix delivered" 1 !delivered))

(* The provenance windows of a tenant record repeat the tracker's
   windows (pid, ltlt, nt_used) at the same index; a record where they
   disagree is corrupt.  One tenant opens one window with a load at
   k = 300, so the triple's bytes occur exactly twice in its record —
   tracker window first, provenance window second — and patching the
   second ltlt (same varint width) must fail with a positioned error. *)
let test_corrupt_prov_window () =
  let pid = Ingest.tenant_pid 0 in
  Engine.with_engine ~shards:1 ~policy:Policy.default ~with_origins:true
    (fun eng ->
      let ev seq k access =
        Engine.I_event { Event.seq; k; pid; access }
      in
      let items =
        ref
          [
            Engine.I_source { pid; kind = "IMEI"; range = Range.of_len 0 8 };
            ev 1 300 (Event.Load (Range.of_len 0 4));
            ev 2 301 (Event.Store (Range.of_len 64 4));
          ]
      in
      Engine.run eng (fun () ->
          match !items with
          | [] -> None
          | it :: rest ->
              items := rest;
              Some it);
      let triple ltlt =
        let b = Buffer.create 8 in
        Pift_util.Wire.add_varint b pid;
        Pift_util.Wire.add_svarint b ltlt;
        Pift_util.Wire.add_varint b 1;
        Buffer.contents b
      in
      with_tmp ~suffix:".piftsnap" (fun path ->
          Snapshot.write path (Snapshot.of_engine eng);
          let full = read_file path in
          let needle = triple 300 and patch = triple 301 in
          let n = String.length needle in
          checki "patch keeps the varint width" n (String.length patch);
          let rec find i acc =
            if i + n > String.length full then List.rev acc
            else
              find (i + 1)
                (if String.sub full i n = needle then i :: acc else acc)
          in
          let at =
            match find 0 [] with
            | [ _; prov ] -> prov
            | l ->
                Alcotest.failf "window triple found %d times, want 2"
                  (List.length l)
          in
          write_file path
            (String.sub full 0 at ^ patch
            ^ String.sub full (at + n) (String.length full - at - n));
          let msg =
            expect_positioned_failure ~what:"provenance window" (fun () ->
                Snapshot.load path)
          in
          checks "provenance window error"
            (Printf.sprintf
               "Snapshot: record 2: provenance window 0 (pid %d, ltlt 301, \
                nt_used 1) disagrees with tracker window (pid %d, ltlt 300, \
                nt_used 1)"
               pid pid)
            msg))

(* Older encoders wrote the store implementation's name into the
   manifest.  [with_store_name full name] re-encodes the manifest
   (record 1: the 9-byte header, a one-byte payload length, then the
   payload holding the name as "\004flat") to carry [name] instead. *)
let with_store_name full name =
  let header = 9 in
  let len = Char.code full.[header] in
  if len >= 0x80 then Alcotest.fail "manifest payload length is not one byte";
  let payload = String.sub full (header + 1) len in
  let needle = "\004flat" in
  let n = String.length needle in
  let rec find i =
    if i + n > len then Alcotest.fail "store name not found in the manifest"
    else if String.sub payload i n = needle then i
    else find (i + 1)
  in
  let idx = find 0 in
  let payload =
    String.sub payload 0 idx
    ^ String.make 1 (Char.chr (String.length name))
    ^ name
    ^ String.sub payload (idx + n) (len - idx - n)
  in
  if String.length payload >= 0x80 then
    Alcotest.fail "re-encoded manifest payload length is not one byte";
  String.sub full 0 header
  ^ String.make 1 (Char.chr (String.length payload))
  ^ payload
  ^ String.sub full (header + 1 + len) (String.length full - header - 1 - len)

(* Every name an older encoder could write named an exact store, so a
   snapshot carrying any of them restores to the same verdicts, origin
   sets and stats; any other name is still a positioned failure. *)
let test_legacy_store_names () =
  sample_snapshot_bytes (fun t full ->
      let restored bytes =
        with_tmp ~suffix:".piftsnap" (fun path ->
            write_file path bytes;
            let snap = Snapshot.load path in
            checkb "decodes to the written snapshot" true (snap = t);
            Engine.with_engine ~shards:2 ~policy:Policy.default
              ~with_origins:true (fun eng ->
                Snapshot.restore_tenants eng snap;
                List.map
                  (fun (tp : Engine.tenant_persisted) ->
                    Option.get (Engine.snapshot_tenant eng ~pid:tp.Engine.tp_pid))
                  snap.Snapshot.tenants))
      in
      let reference = restored full in
      checkb "reference carries origin sets" true
        (List.exists
           (fun (ts : Engine.tenant_snapshot) ->
             List.exists
               (fun (v : Engine.verdict) -> v.Engine.v_origins <> [])
               ts.Engine.ts_verdicts)
           reference);
      List.iter
        (fun name ->
          let got = restored (with_store_name full name) in
          checkb
            (name ^ ": same verdicts, origins and stats")
            true
            (List.length got = List.length reference
            && List.for_all2 tenant_equal got reference))
        [ "functional"; "flat"; "hybrid"; "bytemap" ];
      with_tmp ~suffix:".piftsnap" (fun path ->
          write_file path (with_store_name full "bogus");
          let msg =
            expect_positioned_failure ~what:"unknown store name" (fun () ->
                Snapshot.load path)
          in
          checks "unknown store name error"
            "Snapshot: record 1: unknown backend \"bogus\"" msg))

(* --- crash / recovery differential ---------------------------------------- *)

(* Uninterrupted reference run at [shards]. *)
let clean_run ~shards =
  run_engine ~shards (fun eng sources ->
      Ingest.run eng sources;
      List.map
        (fun (s : Ingest.source) ->
          Option.get (Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid))
        sources)

(* Kill shard [fault_shard]'s consumer [after_items] items after the
   [crash_at]-th snapshot, through the production abort path; then
   restore the last snapshot into a fresh engine with [resume_shards]
   shards, skip every source to its recorded cursor, resume, and
   compare against the uninterrupted run. *)
let crash_recovery_differential ~shards ~resume_shards ~crash_at ~fault_shard
    ~after_items () =
  let clean = clean_run ~shards in
  with_tmp ~suffix:".piftsnap" (fun snap_path ->
      let crashed =
        run_engine ~shards (fun eng sources ->
            let snaps = ref 0 in
            let on_idle () =
              Snapshot.save
                ~sources:(Snapshot.source_entries sources)
                eng snap_path;
              incr snaps;
              if !snaps = crash_at then
                Engine.inject_fault eng ~shard:fault_shard ~after_items
            in
            match Ingest.run ~segment:50 ~on_idle eng sources with
            | () -> None
            | exception Engine.Injected_fault sh -> Some sh)
      in
      (match crashed with
      | Some sh -> checki "fault raised from armed shard" fault_shard sh
      | None ->
          Alcotest.fail "workload finished before the injected fault fired");
      let snap = Snapshot.load snap_path in
      (* the snapshot is a strict prefix: the crash lost in-flight work *)
      let snap_items =
        List.fold_left
          (fun acc (se : Snapshot.source_entry) -> acc + se.Snapshot.se_cursor)
          0 snap.Snapshot.sources
      in
      checkb "snapshot is mid-stream" true (snap_items > 0);
      Engine.with_engine ~shards:resume_shards ~policy:Policy.default
        ~with_origins:true (fun eng ->
          Snapshot.restore_tenants eng snap;
          let recs = Lazy.force recordings in
          let sources =
            List.mapi
              (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r)
              recs
          in
          List.iter
            (fun (s : Ingest.source) ->
              let se =
                List.find
                  (fun (se : Snapshot.source_entry) ->
                    se.Snapshot.se_pid = s.Ingest.src_pid)
                  snap.Snapshot.sources
              in
              Ingest.skip s se.Snapshot.se_cursor)
            sources;
          Ingest.run eng sources;
          List.iter2
            (fun (c : Engine.tenant_snapshot) (s : Ingest.source) ->
              let ts =
                Option.get (Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid)
              in
              checkb
                (Printf.sprintf
                   "resumed tenant %s equals uninterrupted (s%d -> s%d)"
                   ts.Engine.ts_name shards resume_shards)
                true (tenant_equal c ts))
            clean sources))

let test_crash_recovery_s1 () =
  crash_recovery_differential ~shards:1 ~resume_shards:1 ~crash_at:2
    ~fault_shard:0 ~after_items:17 ()

let test_crash_recovery_s2 () =
  crash_recovery_differential ~shards:2 ~resume_shards:2 ~crash_at:3
    ~fault_shard:1 ~after_items:0 ()

let test_crash_recovery_s4 () =
  (* shard 1 holds tenant 0 (StringConcat1), the longest stream — the
     fault lands well before its items dry up *)
  crash_recovery_differential ~shards:4 ~resume_shards:4 ~crash_at:2
    ~fault_shard:1 ~after_items:7 ()

let test_crash_recovery_reshard () =
  (* crash at 2 shards, recover into 4 and into 1 *)
  crash_recovery_differential ~shards:2 ~resume_shards:4 ~crash_at:4
    ~fault_shard:0 ~after_items:3 ();
  crash_recovery_differential ~shards:2 ~resume_shards:1 ~crash_at:4
    ~fault_shard:1 ~after_items:29 ()

(* The engine survives an injected fault: the abort path must leave it
   usable for admin reads and further runs (that is what the restore
   tooling leans on). *)
let test_engine_survives_fault () =
  run_engine ~shards:2 (fun eng sources ->
      Engine.inject_fault eng ~shard:0 ~after_items:40;
      (match Ingest.run eng sources with
      | () -> Alcotest.fail "expected injected fault"
      | exception Engine.Injected_fault _ -> ());
      ignore (Engine.stats eng);
      (* a fresh run on the same engine still works *)
      let r = List.hd (Lazy.force recordings) in
      let pid = Ingest.tenant_pid 9 in
      Ingest.run eng [ Ingest.of_recorded ~pid r ];
      checkb "post-fault ingest works" true
        (Engine.snapshot_tenant eng ~pid <> None))

(* --- long tenants: the kill cuts every stream mid-way ----------------------- *)

(* The recordings above have fewer than 4,096 events each, one seq
   window, so the schedule serves each whole before the next and a kill
   mostly cuts whole tenants.  Browser records over 100k events: as a
   binary file, a text file and in memory (one tenant each, the three
   ways the fill path reads), the schedule alternates them window by
   window, and the third snapshot cuts every one mid-stream. *)
let test_long_tenant_recovery () =
  let r = Recorded.record Pift_workloads.Browser.app in
  let items =
    Pift_trace.Trace.length r.Recorded.trace + Array.length r.Recorded.markers
  in
  checkb "Browser spans many windows" true (items > 25 * 4096);
  with_tmp ~suffix:".pift" (fun bin_path ->
      with_tmp ~suffix:".pift" (fun text_path ->
          with_tmp ~suffix:".piftsnap" (fun snap_path ->
              Pift_eval.Trace_io.save ~format:Pift_eval.Trace_io.Binary r
                bin_path;
              Pift_eval.Trace_io.save ~format:Pift_eval.Trace_io.Text r
                text_path;
              let sources () =
                [
                  Ingest.of_file ~pid:(Ingest.tenant_pid 0) bin_path;
                  Ingest.of_file ~pid:(Ingest.tenant_pid 1) text_path;
                  Ingest.of_recorded ~pid:(Ingest.tenant_pid 2) r;
                ]
              in
              let serve ~shards f =
                Engine.with_engine ~shards ~policy:Policy.default
                  ~with_origins:true (fun eng -> f eng (sources ()))
              in
              let tenant_states eng srcs =
                List.map
                  (fun (s : Ingest.source) ->
                    Option.get (Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid))
                  srcs
              in
              let clean =
                serve ~shards:2 (fun eng srcs ->
                    Ingest.run eng srcs;
                    tenant_states eng srcs)
              in
              let crashed =
                serve ~shards:2 (fun eng srcs ->
                    let snaps = ref 0 in
                    let on_idle () =
                      Snapshot.save
                        ~sources:(Snapshot.source_entries srcs)
                        eng snap_path;
                      incr snaps;
                      if !snaps = 3 then
                        Engine.inject_fault eng ~shard:0 ~after_items:1000
                    in
                    match Ingest.run ~segment:30_000 ~on_idle eng srcs with
                    | () -> false
                    | exception Engine.Injected_fault _ -> true)
              in
              checkb "the injected fault killed the run" true crashed;
              let snap = Snapshot.load snap_path in
              let cursors =
                List.map
                  (fun (se : Snapshot.source_entry) -> se.Snapshot.se_cursor)
                  snap.Snapshot.sources
              in
              checki "cursors sum to three segments" 90_000
                (List.fold_left ( + ) 0 cursors);
              List.iteri
                (fun i c ->
                  checkb
                    (Printf.sprintf "tenant %d cut mid-stream: 0 < %d < %d" i
                       c items)
                    true
                    (0 < c && c < items))
                cursors;
              List.iter
                (fun shards ->
                  serve ~shards (fun eng srcs ->
                      Snapshot.restore_tenants eng snap;
                      List.iter2 Ingest.skip srcs cursors;
                      Ingest.run eng srcs;
                      List.iter2
                        (fun (c : Engine.tenant_snapshot) ts ->
                          checkb
                            (Printf.sprintf
                               "shards %d: tenant %s equals uninterrupted"
                               shards ts.Engine.ts_name)
                            true (tenant_equal c ts))
                        clean (tenant_states eng srcs)))
                [ 1; 4 ])))

(* --- a snapshot from the (seq, source) heap merge ---------------------------- *)

(* [heap_merge_mid_run.piftsnap] was written by the build before
   [Ingest.merge] ordered heads by seq window, when it emitted the head
   with the smallest (seq, source index): the four [recordings] as
   tenants [Ingest.tenant_pid 0..3], [--prov] ([with_origins]), 2
   shards, saved by [Snapshot.save] at the third [on_idle] of
   [Ingest.run ~segment:50].  Its cursors cut the streams where that
   order stood after 150 items, which the window merge never passes
   through; since no tenant's state depends on another's items,
   resuming from them must still finish every tenant exactly as an
   uninterrupted run does. *)
let heap_merge_fixture =
  (* beside the test executable, where the [deps] field of test/dune
     puts it *)
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "heap_merge_mid_run.piftsnap"

let test_heap_merge_snapshot_resumes () =
  let snap = Snapshot.load heap_merge_fixture in
  checki "fixture shards" 2 snap.Snapshot.manifest.Snapshot.m_shards;
  let cursors =
    List.map
      (fun (se : Snapshot.source_entry) -> se.Snapshot.se_cursor)
      snap.Snapshot.sources
  in
  checkb "fixture cursors sum to 150" true
    (List.fold_left ( + ) 0 cursors = 150);
  let clean = clean_run ~shards:2 in
  List.iter
    (fun shards ->
      Engine.with_engine ~shards ~policy:Policy.default ~with_origins:true
        (fun eng ->
          Snapshot.restore_tenants eng snap;
          let sources =
            List.mapi
              (fun i r -> Ingest.of_recorded ~pid:(Ingest.tenant_pid i) r)
              (Lazy.force recordings)
          in
          List.iter2 Ingest.skip sources cursors;
          Ingest.run eng sources;
          List.iter2
            (fun (c : Engine.tenant_snapshot) (s : Ingest.source) ->
              let ts =
                Option.get (Engine.snapshot_tenant eng ~pid:s.Ingest.src_pid)
              in
              checkb
                (Printf.sprintf "shards %d: tenant %s equals uninterrupted"
                   shards ts.Engine.ts_name)
                true (tenant_equal c ts))
            clean sources))
    [ 1; 4 ]

(* Every single-bit flip of the fixture either loads or fails with a
   positioned [Snapshot: record N:] error; any other exception escaping
   the decoder fails the test.  [PIFTSNAP1] has no checksum, so many
   flips load as a different, well-formed snapshot. *)
let test_bit_flips_positioned () =
  let full = read_file heap_merge_fixture in
  let loaded = ref 0 and refused = ref 0 in
  with_tmp ~suffix:".piftsnap" (fun path ->
      for bit = 0 to (8 * String.length full) - 1 do
        let b = Bytes.of_string full in
        let i = bit / 8 in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        write_file path (Bytes.to_string b);
        match Snapshot.load path with
        | _ -> incr loaded
        | exception Failure msg when positioned msg -> incr refused
        | exception e ->
            Alcotest.failf "bit %d (byte %d): %s escaped the decoder" bit i
              (Printexc.to_string e)
      done);
  checkb "some flips load, some are refused" true
    (!loaded > 0 && !refused > 0)

(* --- restore / evict occupancy -------------------------------------------- *)

let test_restore_then_evict_gauge () =
  run_engine ~shards:2 (fun eng sources ->
      Ingest.run eng sources;
      let pid0 = Ingest.tenant_pid 0 in
      let full = (Engine.stats eng).Engine.st_tainted_bytes in
      let ts_before = Option.get (Engine.snapshot_tenant eng ~pid:pid0) in
      let tp0 = Option.get (Engine.persist_tenant eng ~pid:pid0) in
      checkb "evicted" true (Engine.evict_tenant eng ~pid:pid0);
      let survivors = (Engine.stats eng).Engine.st_tainted_bytes in
      checki "eviction released the tenant's bytes"
        (full - ts_before.Engine.ts_tainted_bytes)
        survivors;
      (* restore the persisted tenant: occupancy returns in full *)
      Engine.restore_tenant eng tp0;
      checki "gauge after restore" full
        (Engine.stats eng).Engine.st_tainted_bytes;
      let ts_after = Option.get (Engine.snapshot_tenant eng ~pid:pid0) in
      checkb "restored tenant equals pre-evict snapshot" true
        (tenant_equal ts_before ts_after);
      (* restoring over a resident pid is refused *)
      (match Engine.restore_tenant eng tp0 with
      | () -> Alcotest.fail "double restore must be refused"
      | exception Invalid_argument _ -> ());
      (* evicting the restored tenant lands exactly back on the
         survivors' baseline — the restored occupancy was folded into
         the shard occupancy, not leaked beside it *)
      checkb "evicted again" true (Engine.evict_tenant eng ~pid:pid0);
      checki "gauge back at survivors' baseline" survivors
        (Engine.stats eng).Engine.st_tainted_bytes)

(* --- restore guard rails --------------------------------------------------- *)

let test_restore_config_mismatch () =
  let snap =
    run_engine ~shards:2 (fun eng sources ->
        Ingest.run eng sources;
        Snapshot.of_engine eng)
  in
  let refuse ~what mk =
    Engine.with_engine ~shards:2 ~with_origins:true (fun eng ->
        ignore eng;
        match mk () with
        | () -> Alcotest.failf "%s: mismatched restore must be refused" what
        | exception Invalid_argument _ -> ())
  in
  refuse ~what:"policy" (fun () ->
      Engine.with_engine ~shards:2 ~with_origins:true
        ~policy:(Policy.make ~ni:2 ~nt:1 ()) (fun eng ->
          Snapshot.restore_tenants eng snap));
  refuse ~what:"origins" (fun () ->
      Engine.with_engine ~shards:2 ~with_origins:false (fun eng ->
          Snapshot.restore_tenants eng snap));
  refuse ~what:"pid_range" (fun () ->
      Engine.with_engine ~shards:2 ~with_origins:true ~pid_range:4096
        (fun eng -> Snapshot.restore_tenants eng snap))

let test_skip_past_end_fails () =
  let r = List.hd (Lazy.force recordings) in
  let s = Ingest.of_recorded ~pid:(Ingest.tenant_pid 0) r in
  match Ingest.skip s 1_000_000 with
  | () -> Alcotest.fail "skip past end of trace must fail"
  | exception Failure msg ->
      checkb
        (Printf.sprintf "skip failure names the source (%s)" msg)
        true
        (String.length msg > 0)

let () =
  Alcotest.run "recovery"
    [
      ( "roundtrip",
        [
          Alcotest.test_case
            "persist/restore identity, all backends x prov (12k ops)" `Slow
            test_roundtrip_property;
          Alcotest.test_case "write/load identity + record count" `Quick
            test_write_load_identity;
          Alcotest.test_case "persisted state is shard-count-free" `Quick
            test_persist_shard_free;
          Alcotest.test_case "legacy store names restore identically" `Quick
            test_legacy_store_names;
          Alcotest.test_case "record over 64 KiB" `Quick test_oversized_record;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "truncated mid-record" `Quick
            test_corrupt_truncated;
          Alcotest.test_case "truncated at a record boundary" `Quick
            test_corrupt_record_boundary_truncation;
          Alcotest.test_case "bad magic / empty file" `Quick
            test_corrupt_bad_magic;
          Alcotest.test_case "wrong version byte" `Quick
            test_corrupt_wrong_version;
          Alcotest.test_case "non-hex pid record" `Quick
            test_corrupt_non_hex_pid;
          Alcotest.test_case "provenance window disagrees with tracker" `Quick
            test_corrupt_prov_window;
          Alcotest.test_case "heap-merge snapshot: every bit flip positioned"
            `Quick test_bit_flips_positioned;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "kill+restore+resume = uninterrupted (1 shard)"
            `Slow test_crash_recovery_s1;
          Alcotest.test_case "kill+restore+resume = uninterrupted (2 shards)"
            `Slow test_crash_recovery_s2;
          Alcotest.test_case "kill+restore+resume = uninterrupted (4 shards)"
            `Slow test_crash_recovery_s4;
          Alcotest.test_case "crash at 2 shards, recover at 4 and 1" `Slow
            test_crash_recovery_reshard;
          Alcotest.test_case "engine survives an injected fault" `Quick
            test_engine_survives_fault;
          Alcotest.test_case "heap-merge snapshot resumes at 1 and 4 shards"
            `Quick test_heap_merge_snapshot_resumes;
          Alcotest.test_case "long tenants: kill mid-stream, restore at 1 and 4"
            `Quick test_long_tenant_recovery;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "restore-then-evict returns gauge to baseline"
            `Quick test_restore_then_evict_gauge;
          Alcotest.test_case "mismatched restore is refused" `Quick
            test_restore_config_mismatch;
          Alcotest.test_case "skip past end of trace fails" `Quick
            test_skip_past_end_fails;
        ] );
    ]
