(** The metrics snapshot of a run, built once the run has ended.

    Every quantity is read off something the run keeps anyway: the
    recording's trace and VM counts, the replay's {!Pift_core.Tracker.stats}
    and store, the range-cache model's {!Pift_core.Storage.stats}, the
    {!Pift_core.Hw_model.report} and the sweep result.  Nothing is
    counted live for the snapshot, so taking one costs nothing until the
    run is over.  This is the only code that knows metric names, help
    texts and their order. *)

type part =
  | Recording of { recorded : Recorded.t; mode : Pift_dalvik.Vm.mode }
      (** [pift_cpu_*] from the trace, [pift_vm_*] from the VM counts *)
  | Replay of {
      recorded : Recorded.t;
      replay : Recorded.replay;
      store : Pift_core.Store.t;  (** the store the replay ran against *)
    }  (** [pift_store_*] and [pift_tracker_*] *)
  | Range_cache of Pift_core.Storage.t  (** [pift_storage_*] *)
  | Hw of Pift_core.Hw_model.report  (** [pift_hw_*] *)
  | Sweep of Accuracy.sweep  (** [pift_sweep_*] *)

val samples : part list -> Pift_obs.Registry.sample list
(** The parts' samples, part by part in the order given.  Within a part
    the order is fixed, so a snapshot renders byte for byte the same
    from run to run. *)
