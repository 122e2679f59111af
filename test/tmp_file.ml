(* Scratch files for the suites.

   Every write goes to a path that does not exist yet.  ext4 flushes a
   file that was truncated and rewritten (an [O_TRUNC] open of an
   existing file, even an empty one such as [Filename.temp_file]
   leaves) as soon as it is closed, and a later truncate or unlink of
   that file then waits for the write to reach the disk: tens of
   milliseconds each on a slow disk, minutes over the suites'
   thousands of saves and mutants.  A file created fresh and removed
   before it is flushed never waits on the disk. *)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* A fresh name in the temporary directory, with no file at it. *)
let path prefix suffix =
  let p = Filename.temp_file prefix suffix in
  Sys.remove p;
  p

(* [with_path prefix suffix f] is [f] on a fresh [path], whose file (if
   [f] made one) is removed afterwards. *)
let with_path prefix suffix f =
  let p = path prefix suffix in
  Fun.protect ~finally:(fun () -> remove p) (fun () -> f p)

(* [write path s] replaces the file at [path] by a new one holding [s]. *)
let write path s =
  remove path;
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
