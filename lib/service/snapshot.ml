module Range = Pift_util.Range
module Wire = Pift_util.Wire
module Policy = Pift_core.Policy
module Tracker = Pift_core.Tracker
module Provenance = Pift_core.Provenance

(* On-disk durability for the multi-tenant engine.

   Layout (all integers are Wire varints; strings are length-prefixed
   raw bytes; ranges are [svarint lo, varint length]):

   {v
   "PIFTSNAP" <version byte '1'>
   <varint payload-length> <payload>   repeated until EOF
   payload := tag byte, then fields
     0 manifest  shards pid_range store(str) with_origins(byte)
                 ni nt untaint(byte) n_sources n_tenants
     1 source    name(str) path(str) pid(hex str) orig-pid(hex str)
                 cursor
     2 tenant    pid name(str)
                 verdicts:  n { kind(str) flagged(byte) n-origins str* }
                 stats:     taint untaint lookups tainted_loads
                            max_bytes max_ranges events
                 last_time(svarint)
                 windows:   n { pid ltlt(svarint) nt_used }
                 store:     n { pid n-ranges range* }
                 prov(byte) — when 1:
                   entries:      n { pid label(str) n-ranges range* }
                   windows:      n { pid ltlt(svarint) nt_used
                                     n-labels str*
                                     opener_seq(svarint)
                                     opener(byte) [range] }
                                 — one per tracker window, same order;
                                 pid/ltlt/nt_used copy the tracker
                                 window and are checked on read
                   known-labels: n str*
                   probes
   v}

   The manifest must be record 1 and carries the engine config a
   restore needs (policy, origins mode) plus the pid-block
   layout and expected record counts, so truncation at a record
   boundary — which reads as a clean EOF — is still caught.  Source
   pids are hex strings rather than varints: they cross the snapshot /
   trace-file boundary (a restore re-derives tenant pids from them),
   and the strict hex validation gives corrupt bytes a typed,
   positioned failure instead of a silently misrouted tenant.

   The framing, its limits, the field decoders and the failures are
   [Pift_util.Wire]'s record layer, shared with Trace_io: every corrupt
   byte surfaces as [Failure "Snapshot: record N: ..."], never a bare
   exception, and a
   streaming {!iter} delivers every intact prefix record before the
   positioned error.  Writes are atomic and durable (fsynced temp file
   + rename + fsynced directory), so a process kill or a power loss
   mid-snapshot leaves the previous snapshot intact. *)

let magic = "PIFTSNAP"
let version = '1'

let tag_manifest = 0
let tag_source = 1
let tag_tenant = 2

(* The manifest's store-name field.  Every tenant store is a Store_flat
   set, so the encoder writes one constant; the decoder accepts every
   name an older encoder could write — all of them exact stores with
   the same canonical ranges, so such a snapshot restores identically —
   and rejects anything else. *)
let store_name = "flat"
let known_store_names = [ "functional"; "flat"; "hybrid"; "bytemap" ]

type manifest = {
  m_shards : int;
  m_pid_range : int;
  m_with_origins : bool;
  m_policy : Policy.t;
  m_sources : int;  (* expected source records *)
  m_tenants : int;  (* expected tenant records *)
}

type source_entry = {
  se_name : string;
  se_path : string;  (* "" for in-memory sources *)
  se_pid : int;
  se_orig_pid : int;
  se_cursor : int;
}

type t = {
  manifest : manifest;
  sources : source_entry list;
  tenants : Engine.tenant_persisted list;
}

type record =
  | R_manifest of manifest
  | R_source of source_entry
  | R_tenant of Engine.tenant_persisted

(* --- encoding ----------------------------------------------------------- *)

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_range buf r =
  Wire.add_svarint buf (Range.lo r);
  Wire.add_varint buf (Range.length r)

let add_ranges buf rs =
  Wire.add_varint buf (List.length rs);
  List.iter (add_range buf) rs

let add_manifest buf m =
  Buffer.add_char buf (Char.chr tag_manifest);
  Wire.add_varint buf m.m_shards;
  Wire.add_varint buf m.m_pid_range;
  Wire.add_string buf store_name;
  add_bool buf m.m_with_origins;
  Wire.add_varint buf m.m_policy.Policy.ni;
  Wire.add_varint buf m.m_policy.Policy.nt;
  add_bool buf m.m_policy.Policy.untaint;
  Wire.add_varint buf m.m_sources;
  Wire.add_varint buf m.m_tenants

let add_source buf se =
  Buffer.add_char buf (Char.chr tag_source);
  Wire.add_string buf se.se_name;
  Wire.add_string buf se.se_path;
  Wire.add_string buf (Printf.sprintf "%x" se.se_pid);
  Wire.add_string buf (Printf.sprintf "%x" se.se_orig_pid);
  Wire.add_varint buf se.se_cursor

(* The provenance windows are the tracker's windows, same pids in the
   same order: their ltlt and nt_used are written from [windows]. *)
let add_prov buf ~windows (pp : Provenance.persisted) =
  Wire.add_varint buf (List.length pp.Provenance.ps_entries);
  List.iter
    (fun ((pid, label), ranges) ->
      Wire.add_varint buf pid;
      Wire.add_string buf label;
      add_ranges buf ranges)
    pp.Provenance.ps_entries;
  Wire.add_varint buf (List.length pp.Provenance.ps_windows);
  List.iter2
    (fun (pw : Provenance.persisted_window) (_, ltlt, nt_used) ->
      Wire.add_varint buf pw.Provenance.pw_pid;
      Wire.add_svarint buf ltlt;
      Wire.add_varint buf nt_used;
      Wire.add_varint buf (List.length pw.Provenance.pw_labels);
      List.iter (Wire.add_string buf) pw.Provenance.pw_labels;
      Wire.add_svarint buf pw.Provenance.pw_opener_seq;
      match pw.Provenance.pw_opener_range with
      | None -> add_bool buf false
      | Some r ->
          add_bool buf true;
          add_range buf r)
    pp.Provenance.ps_windows windows;
  Wire.add_varint buf (List.length pp.Provenance.ps_known_labels);
  List.iter (Wire.add_string buf) pp.Provenance.ps_known_labels;
  Wire.add_varint buf pp.Provenance.ps_probes

let add_tenant buf (tp : Engine.tenant_persisted) =
  Buffer.add_char buf (Char.chr tag_tenant);
  Wire.add_varint buf tp.Engine.tp_pid;
  Wire.add_string buf tp.Engine.tp_name;
  Wire.add_varint buf (List.length tp.Engine.tp_verdicts);
  List.iter
    (fun (v : Engine.verdict) ->
      Wire.add_string buf v.Engine.v_kind;
      add_bool buf v.Engine.v_flagged;
      Wire.add_varint buf (List.length v.Engine.v_origins);
      List.iter (Wire.add_string buf) v.Engine.v_origins)
    tp.Engine.tp_verdicts;
  let p = tp.Engine.tp_state in
  let s = p.Tracker.p_stats in
  Wire.add_varint buf s.Tracker.taint_ops;
  Wire.add_varint buf s.Tracker.untaint_ops;
  Wire.add_varint buf s.Tracker.lookups;
  Wire.add_varint buf s.Tracker.tainted_loads;
  Wire.add_varint buf s.Tracker.max_tainted_bytes;
  Wire.add_varint buf s.Tracker.max_ranges;
  Wire.add_varint buf s.Tracker.events;
  Wire.add_svarint buf p.Tracker.p_last_time;
  Wire.add_varint buf (List.length p.Tracker.p_windows);
  List.iter
    (fun (pid, ltlt, nt_used) ->
      Wire.add_varint buf pid;
      Wire.add_svarint buf ltlt;
      Wire.add_varint buf nt_used)
    p.Tracker.p_windows;
  Wire.add_varint buf (List.length p.Tracker.p_store);
  List.iter
    (fun (pid, ranges) ->
      Wire.add_varint buf pid;
      add_ranges buf ranges)
    p.Tracker.p_store;
  match p.Tracker.p_prov with
  | None -> add_bool buf false
  | Some pp ->
      add_bool buf true;
      add_prov buf ~windows:p.Tracker.p_windows pp

let to_channel t oc =
  output_string oc magic;
  output_char oc version;
  let w = Wire.writer oc in
  let record add x =
    add (Wire.payload w) x;
    Wire.emit w
  in
  record add_manifest t.manifest;
  List.iter (record add_source) t.sources;
  List.iter (record add_tenant) t.tenants

(* Atomic and durable: a crash, a SIGKILL or a power loss between two
   snapshot cadences must never leave a half-written file where the
   last good snapshot was — recovery always finds either the old
   complete snapshot or the new one.  The temp file lives in the same
   directory so the rename stays within one filesystem; it is fsynced
   before the rename (so the new name never points at unwritten
   blocks) and the directory after it (so the rename itself is on
   disk). *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         to_channel t oc;
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir path

(* --- decoding ----------------------------------------------------------- *)

(* Fields of the current record, decoded in place by the [Wire]
   cursor [c]. *)
let str c = Wire.string c "truncated string"

let get_bool c =
  match Wire.byte c with
  | 0 -> false
  | 1 -> true
  | b -> Wire.fail c (Printf.sprintf "bad boolean byte %d" b)

(* A bounded count before List.init keeps corrupt counts from
   allocating without limit: every element is at least one payload
   byte, so a legitimate count never exceeds the record length. *)
let get_count c what =
  let n = Wire.varint c in
  if n < 0 || n > Wire.remaining c + 1 then
    Wire.fail c (Printf.sprintf "implausible %s count" what);
  n

let get_range c =
  let lo = Wire.svarint c in
  let len = Wire.varint c in
  try Range.of_len lo len with Invalid_argument msg -> Wire.fail c msg

let get_ranges c = List.init (get_count c "range") (fun _ -> get_range c)

(* Strict hex, mirroring Trace_io's kind-escape validation: any
   non-hex byte is a positioned error, and [int_of_string]'s laxness
   (underscores, nested "0x") never gets a say. *)
let get_hex_pid c what =
  let s = str c in
  if s = "" then Wire.fail c (Printf.sprintf "empty %s record" what);
  let v = ref 0 in
  String.iter
    (fun ch ->
      let d =
        match ch with
        | '0' .. '9' -> Char.code ch - Char.code '0'
        | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
        | _ -> Wire.fail c (Printf.sprintf "non-hex %s record: %S" what s)
      in
      if !v > max_int lsr 4 then
        Wire.fail c (Printf.sprintf "%s overflow: %S" what s);
      v := (!v lsl 4) lor d)
    s;
  !v

let read_manifest c =
  let m_shards = Wire.varint c in
  let m_pid_range = Wire.varint c in
  let store = str c in
  if not (List.mem store known_store_names) then
    Wire.fail c (Printf.sprintf "unknown backend %S" store);
  let m_with_origins = get_bool c in
  let ni = Wire.varint c in
  let nt = Wire.varint c in
  let untaint = get_bool c in
  let policy =
    try Policy.make ~untaint ~ni ~nt ()
    with Invalid_argument msg -> Wire.fail c msg
  in
  let m_sources = Wire.varint c in
  let m_tenants = Wire.varint c in
  if m_shards <= 0 then Wire.fail c "manifest: shards must be positive";
  if m_pid_range <= 0 then Wire.fail c "manifest: pid_range must be positive";
  if m_sources < 0 || m_tenants < 0 then Wire.fail c "manifest: negative count";
  {
    m_shards;
    m_pid_range;
    m_with_origins;
    m_policy = policy;
    m_sources;
    m_tenants;
  }

let read_source c =
  let se_name = str c in
  let se_path = str c in
  let se_pid = get_hex_pid c "pid" in
  let se_orig_pid = get_hex_pid c "orig-pid" in
  let se_cursor = Wire.varint c in
  if se_cursor < 0 then Wire.fail c "negative cursor";
  { se_name; se_path; se_pid; se_orig_pid; se_cursor }

(* Each provenance window must repeat the tracker window at its index:
   the sidecar records the tracker's windows, it has none of its own. *)
let read_prov c ~windows : Provenance.persisted =
  let ps_entries =
    List.init (get_count c "prov entry") (fun _ ->
        let pid = Wire.varint c in
        let label = str c in
        ((pid, label), get_ranges c))
  in
  let n = get_count c "prov window" in
  if n <> Array.length windows then
    Wire.fail c
      (Printf.sprintf "%d provenance windows for %d tracker windows" n
         (Array.length windows));
  let ps_windows =
    List.init n (fun i ->
        let pw_pid = Wire.varint c in
        let ltlt = Wire.svarint c in
        let nt_used = Wire.varint c in
        let ((tpid, tltlt, tnt) as tw) = windows.(i) in
        if (pw_pid, ltlt, nt_used) <> tw then
          Wire.fail c
            (Printf.sprintf
               "provenance window %d (pid %d, ltlt %d, nt_used %d) \
                disagrees with tracker window (pid %d, ltlt %d, nt_used %d)"
               i pw_pid ltlt nt_used tpid tltlt tnt);
        let pw_labels =
          List.init (get_count c "label") (fun _ -> str c)
        in
        let pw_opener_seq = Wire.svarint c in
        let pw_opener_range =
          if get_bool c then Some (get_range c) else None
        in
        {
          Provenance.pw_pid;
          pw_labels;
          pw_opener_seq;
          pw_opener_range;
        })
  in
  let ps_known_labels =
    List.init (get_count c "known label") (fun _ -> str c)
  in
  let ps_probes = Wire.varint c in
  { Provenance.ps_entries; ps_windows; ps_known_labels; ps_probes }

let read_tenant c : Engine.tenant_persisted =
  let tp_pid = Wire.varint c in
  let tp_name = str c in
  let tp_verdicts =
    List.init (get_count c "verdict") (fun _ ->
        let v_kind = str c in
        let v_flagged = get_bool c in
        let v_origins =
          List.init (get_count c "origin") (fun _ -> str c)
        in
        { Engine.v_kind; v_flagged; v_origins })
  in
  let taint_ops = Wire.varint c in
  let untaint_ops = Wire.varint c in
  let lookups = Wire.varint c in
  let tainted_loads = Wire.varint c in
  let max_tainted_bytes = Wire.varint c in
  let max_ranges = Wire.varint c in
  let events = Wire.varint c in
  let p_last_time = Wire.svarint c in
  let p_windows =
    List.init (get_count c "window") (fun _ ->
        let pid = Wire.varint c in
        let ltlt = Wire.svarint c in
        let nt_used = Wire.varint c in
        (pid, ltlt, nt_used))
  in
  let p_store =
    List.init (get_count c "store pid") (fun _ ->
        let pid = Wire.varint c in
        (pid, get_ranges c))
  in
  let p_prov =
    if get_bool c then Some (read_prov c ~windows:(Array.of_list p_windows))
    else None
  in
  {
    Engine.tp_pid;
    tp_name;
    tp_verdicts;
    tp_state =
      {
        Tracker.p_stats =
          {
            Tracker.taint_ops;
            untaint_ops;
            lookups;
            tainted_loads;
            max_tainted_bytes;
            max_ranges;
            events;
          };
        p_last_time;
        p_windows;
        p_store;
        p_prov;
      };
  }

(* Magic and version byte, then [f] over the cursor at the first
   record. *)
let with_cursor path f =
  Wire.with_file path @@ fun fd ->
  let c = Wire.open_cursor ~what:"Snapshot" ~magic fd in
  (match Wire.header_byte c with
  | -1 -> Wire.fail c "bad magic (truncated)"
  | v when Char.chr v = version -> ()
  | v ->
      Wire.fail c
        (Printf.sprintf "unsupported snapshot version %C (want %C)"
           (Char.chr v) version));
  f c

(* One record per step until EOF exactly at a record boundary.
   Anything else — truncation, unknown tags, trailing bytes — fails
   with the record number, after every preceding record was already
   delivered. *)
let rec iter_records c f =
  match Wire.next c with
  | -1 -> ()
  | tag ->
      let record =
        if tag = tag_manifest then R_manifest (read_manifest c)
        else if tag = tag_source then R_source (read_source c)
        else if tag = tag_tenant then R_tenant (read_tenant c)
        else Wire.unknown_tag c tag
      in
      Wire.finish c;
      f record;
      iter_records c f

let iter path f = with_cursor path (fun c -> iter_records c f)

(* A failure here names the record just read, or the last one at the
   end of the stream. *)
let load path =
  with_cursor path @@ fun c ->
  let manifest = ref None in
  let sources = ref [] in
  let tenants = ref [] in
  let records = ref 0 in
  iter_records c (fun r ->
      incr records;
      match r with
      | R_manifest m ->
          if !records <> 1 then
            Wire.fail c "manifest must be the first record";
          manifest := Some m
      | R_source se ->
          if !manifest = None then
            Wire.fail c "source record before manifest";
          sources := se :: !sources
      | R_tenant tp ->
          if !manifest = None then
            Wire.fail c "tenant record before manifest";
          tenants := tp :: !tenants);
  match !manifest with
  | None -> Wire.fail c "empty snapshot (no manifest)"
  | Some m ->
      let sources = List.rev !sources in
      let tenants = List.rev !tenants in
      (* Truncation at a record boundary reads as clean EOF; the
         manifest counts catch it. *)
      if List.length sources <> m.m_sources then
        Wire.fail c
          (Printf.sprintf "truncated snapshot: expected %d source records, got %d"
             m.m_sources (List.length sources));
      if List.length tenants <> m.m_tenants then
        Wire.fail c
          (Printf.sprintf "truncated snapshot: expected %d tenant records, got %d"
             m.m_tenants (List.length tenants));
      { manifest = m; sources; tenants }

(* --- engine glue (engine idle) ------------------------------------------ *)

let source_entries sources =
  List.map
    (fun (s : Ingest.source) ->
      {
        se_name = s.Ingest.src_name;
        se_path = Option.value s.Ingest.src_path ~default:"";
        se_pid = s.Ingest.src_pid;
        se_orig_pid = s.Ingest.src_orig_pid;
        se_cursor = Ingest.cursor s;
      })
    sources

let of_engine ?(sources = []) eng =
  let tenants = Engine.persist_tenants eng in
  {
    manifest =
      {
        m_shards = Engine.shards eng;
        m_pid_range = Engine.pid_range;
        m_with_origins = Engine.with_origins eng;
        m_policy = Engine.policy eng;
        m_sources = List.length sources;
        m_tenants = List.length tenants;
      };
    sources;
    tenants;
  }

let save ?sources eng path = write path (of_engine ?sources eng)

(* Restores are strict about config compatibility: a tenant persisted
   under one policy/origins mode restored into an engine with
   another would silently diverge from the uninterrupted run — the one
   thing a durability layer must never do.  The pid block width is no
   engine setting but a constant, so a manifest with another one is bad
   input: a [Failure], as corrupt bytes are. *)
let restore_tenants eng t =
  let m = t.manifest in
  if m.m_pid_range <> Engine.pid_range then
    failwith
      (Printf.sprintf "Snapshot: manifest pid_range %d, expected %d"
         m.m_pid_range Engine.pid_range);
  if Engine.policy eng <> m.m_policy then
    invalid_arg
      (Printf.sprintf "Snapshot.restore_tenants: engine policy %s <> snapshot %s"
         (Policy.to_string (Engine.policy eng))
         (Policy.to_string m.m_policy));
  if Engine.with_origins eng <> m.m_with_origins then
    invalid_arg "Snapshot.restore_tenants: origins mode mismatch";
  List.iter (Engine.restore_tenant eng) t.tenants
