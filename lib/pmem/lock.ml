(** Simulated mutual-exclusion locks for the contention model.

    Execution is host-sequential (one op runs to completion before the
    scheduler dispatches the next), so a lock never blocks the host: it
    only moves virtual time. [free_at] remembers when the last critical
    section ended in virtual time; an actor acquiring earlier than that is
    charged the wait ([free_at - now]) and its clock jumps to [free_at] —
    the deterministic serialization a kernel mutex imposes on overlapping
    critical sections.

    With a single registered actor the lock is inert (its clock is
    monotone, so no window can overlap), keeping single-client results
    bit-identical to the pre-actor model; uncontended acquisition cost is
    part of the calibrated per-op CPU constants. Re-entrant acquisition by
    the holder is harmless: [free_at] is only published at release, so a
    nested acquire sees a past timestamp and charges nothing. *)

type t = {
  l_prefix : string;
  l_id : int;  (** the name is [l_prefix] followed by [l_id]; -1 = none *)
  mutable free_at : float;  (** virtual time the last holder released *)
  mutable contended : int;  (** host-side count of charged waits *)
}

(** [create ?id prefix] is a lock named [prefix], or [prefix] followed by
    the decimal [id]. The name is formatted only when read, by the traced
    contended-wait span, so a stack makes its per-file, per-stripe and
    per-shard locks without formatting a string for each. *)
let create ?(id = -1) prefix =
  { l_prefix = prefix; l_id = id; free_at = 0.; contended = 0 }

(** A copy of [t] with its published window and wait count. *)
let copy t = { t with free_at = t.free_at }

let name t = if t.l_id < 0 then t.l_prefix else t.l_prefix ^ string_of_int t.l_id
let contended t = t.contended

(** Charge the current actor for entering the critical section now. *)
let acquire t ~clock ~(stats : Stats.t) =
  if Simclock.multi clock then begin
    let now = Simclock.now clock in
    if t.free_at > now then begin
      let wait = t.free_at -. now in
      let obs = Simclock.obs clock in
      Obs.push obs Obs.Lock_wait;
      Simclock.advance clock wait;
      Obs.pop obs;
      t.contended <- t.contended + 1;
      stats.Stats.lock_wait_ns <- stats.Stats.lock_wait_ns +. wait;
      let a = Simclock.current clock in
      a.Simclock.a_lock_wait_ns <- a.Simclock.a_lock_wait_ns +. wait;
      if Obs.tracing obs then
        Obs.emit obs ~name:("lock:" ^ name t) ~cat:Obs.Lock_wait
          ~actor:a.Simclock.aid ~t0:now ~t1:a.Simclock.a_now
    end
  end

(** Publish the end of the critical section. *)
let release t ~clock =
  if Simclock.multi clock then t.free_at <- Simclock.now clock

(** [with_ t ~clock ~stats f] runs [f] as one critical section. The lock
    is released even if [f] raises (e.g. a simulated crash mid-commit). *)
let with_ t ~clock ~stats f =
  acquire t ~clock ~stats;
  Fun.protect ~finally:(fun () -> release t ~clock) f
