(** Randomized differential test for the PM device simulator.

    [Naive] is a line-at-a-time reference model — the Hashtbl-of-64-byte-
    lines implementation the device shipped with before the dirty-line
    bitmap index — kept oracle-simple on purpose. Thousands of mixed
    store/store_nt/flush/fence/crash/load operations are driven against
    both the oracle and the fast-path device, asserting after every
    operation that the simulated clocks agree bit-for-bit, that dirty-line
    counts, PM-traffic counters and every block's wear match, that loads
    return identical bytes, and (at crash points and at the end) that the
    durable images are identical. Host-side fast paths must never change
    simulated results. [Naive_journal] does the same for the persist-order
    journal: pending summaries and crash images must match a journal that
    keeps and copies every line it has touched. *)

open Pmem

let tc = Alcotest.test_case
let line_size = 64

(* The device holds its images in 4 KiB chunks allocated on first write,
   and its wear counters in leaves of one 64 KiB region each; the naive
   model keeps one flat buffer and one wear counter per block. *)
let chunk = 4096
let region = 65536

(* [zero_nt] stores a longer range as one NT store per 64 KiB piece. *)
let zero_piece = 65536

(* ------------------------------------------------------------------ *)
(* Naive reference model (pre-bitmap semantics, oracle-simple)          *)
(* ------------------------------------------------------------------ *)

module Naive = struct
  type t = {
    capacity : int;
    persistent : Bytes.t;
    dirty : (int, Bytes.t) Hashtbl.t;  (* line index -> line content *)
    wear : int array;  (* writes per 4 KiB block *)
    clock : Simclock.t;
    timing : Timing.t;
    stats : Stats.t;
    mutable last_read_start : int;
    mutable last_read_end : int;
  }

  let create ~capacity ~timing () =
    {
      capacity;
      persistent = Bytes.make capacity '\000';
      dirty = Hashtbl.create 4096;
      wear = Array.make (capacity / Device.block_size) 0;
      clock = Simclock.create ();
      timing;
      stats = Stats.create ();
      last_read_start = -1;
      last_read_end = -1;
    }

  let charge_media t ns =
    Simclock.advance t.clock ns;
    t.stats.Stats.media_ns <- t.stats.Stats.media_ns +. ns

  (* One write to every block [addr, addr+len) covers. *)
  let wear_range t ~addr ~len =
    for b = addr / Device.block_size to (addr + len - 1) / Device.block_size do
      t.wear.(b) <- t.wear.(b) + 1
    done

  let store t ~addr src ~off ~len =
    if len > 0 then begin
      Simclock.advance t.clock
        (float_of_int len *. t.timing.Timing.cache_store_per_byte);
      let pos = ref addr and soff = ref off and remaining = ref len in
      while !remaining > 0 do
        let line = !pos / line_size in
        let in_line = !pos mod line_size in
        let n = min !remaining (line_size - in_line) in
        let content =
          match Hashtbl.find_opt t.dirty line with
          | Some c -> c
          | None ->
              let c = Bytes.create line_size in
              Bytes.blit t.persistent (line * line_size) c 0 line_size;
              Hashtbl.replace t.dirty line c;
              c
        in
        Bytes.blit src !soff content in_line n;
        pos := !pos + n;
        soff := !soff + n;
        remaining := !remaining - n
      done
    end

  let persist_line t line =
    match Hashtbl.find_opt t.dirty line with
    | None -> ()
    | Some content ->
        Bytes.blit content 0 t.persistent (line * line_size) line_size;
        Hashtbl.remove t.dirty line

  let store_nt t ~addr src ~off ~len =
    if len > 0 then begin
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        persist_line t line
      done;
      Bytes.blit src off t.persistent addr len;
      charge_media t (Timing.nt_write_cost t.timing len);
      t.stats.Stats.nt_stores <- t.stats.Stats.nt_stores + 1;
      t.stats.Stats.pm_write_bytes <- t.stats.Stats.pm_write_bytes + len;
      wear_range t ~addr ~len
    end

  let flush t ~addr ~len =
    if len > 0 then begin
      let first = addr / line_size and last = (addr + len - 1) / line_size in
      for line = first to last do
        if Hashtbl.mem t.dirty line then begin
          persist_line t line;
          Simclock.advance t.clock t.timing.Timing.clwb;
          charge_media t (Timing.nt_write_cost t.timing line_size);
          t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
          t.stats.Stats.pm_write_bytes <-
            t.stats.Stats.pm_write_bytes + line_size;
          wear_range t ~addr:(line * line_size) ~len:line_size
        end
      done
    end

  let fence t =
    Simclock.advance t.clock t.timing.Timing.sfence;
    t.stats.Stats.fences <- t.stats.Stats.fences + 1

  (* The read-adjacency rule matches the device: continuing where the last
     load ended, or exactly repeating it, is sequential. *)
  let load t ~addr dst ~off ~len =
    if len > 0 then begin
      let random =
        not
          (addr = t.last_read_end
          || (addr = t.last_read_start && addr + len = t.last_read_end))
      in
      t.last_read_start <- addr;
      t.last_read_end <- addr + len;
      let pos = ref addr and doff = ref off and remaining = ref len in
      let cached = ref 0 and uncached = ref 0 in
      while !remaining > 0 do
        let line = !pos / line_size in
        let in_line = !pos mod line_size in
        let n = min !remaining (line_size - in_line) in
        (match Hashtbl.find_opt t.dirty line with
        | Some content ->
            Bytes.blit content in_line dst !doff n;
            cached := !cached + n
        | None ->
            Bytes.blit t.persistent !pos dst !doff n;
            uncached := !uncached + n);
        pos := !pos + n;
        doff := !doff + n;
        remaining := !remaining - n
      done;
      if !cached > 0 then
        Simclock.advance t.clock
          (float_of_int !cached *. t.timing.Timing.cache_read_per_byte);
      if !uncached > 0 then begin
        charge_media t (Timing.pm_read_cost t.timing ~random !uncached);
        t.stats.Stats.pm_read_bytes <- t.stats.Stats.pm_read_bytes + !uncached
      end
    end

  (* one NT store of zeros per piece, so a block two pieces share wears
     twice *)
  let zero_nt t ~addr ~len =
    let pos = ref addr and remaining = ref len in
    while !remaining > 0 do
      let n = min !remaining zero_piece in
      store_nt t ~addr:!pos (Bytes.make n '\000') ~off:0 ~len:n;
      pos := !pos + n;
      remaining := !remaining - n
    done

  let peek t ~addr ~len = Bytes.sub t.persistent addr len
  let poke t ~addr src ~off ~len = Bytes.blit src off t.persistent addr len

  (* the cache is lost; the image and the wear stay *)
  let crash t =
    Hashtbl.reset t.dirty;
    t.last_read_start <- -1;
    t.last_read_end <- -1

  let reset_faults t = Array.fill t.wear 0 (Array.length t.wear) 0

  let dirty_lines t = Hashtbl.length t.dirty
end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let capacity = 256 * 1024

let check_float msg a b =
  if a <> b then
    Alcotest.failf "%s: oracle %.17g vs device %.17g" msg a b

let check_agreement ~op_no naive env dev =
  let tag msg = Printf.sprintf "op %d: %s" op_no msg in
  check_float (tag "simulated clock") (Simclock.now naive.Naive.clock)
    (Env.now env);
  check_float (tag "media_ns") naive.Naive.stats.Stats.media_ns
    env.Env.stats.Stats.media_ns;
  Util.check_int (tag "dirty lines") (Naive.dirty_lines naive)
    (Device.dirty_lines dev);
  Util.check_int (tag "pm_read_bytes") naive.Naive.stats.Stats.pm_read_bytes
    env.Env.stats.Stats.pm_read_bytes;
  Util.check_int (tag "pm_write_bytes") naive.Naive.stats.Stats.pm_write_bytes
    env.Env.stats.Stats.pm_write_bytes;
  Util.check_int (tag "flushes") naive.Naive.stats.Stats.flushes
    env.Env.stats.Stats.flushes;
  Util.check_int (tag "fences") naive.Naive.stats.Stats.fences
    env.Env.stats.Stats.fences;
  Util.check_int (tag "nt_stores") naive.Naive.stats.Stats.nt_stores
    env.Env.stats.Stats.nt_stores;
  Array.iteri
    (fun b w ->
      let d = Device.wear_of_block dev b in
      if w <> d then
        Alcotest.failf "%s: oracle %d vs device %d"
          (tag (Printf.sprintf "wear of block %d" b))
          w d)
    naive.Naive.wear;
  Util.check_int (tag "max wear")
    (Array.fold_left max 0 naive.Naive.wear)
    (Device.max_wear dev);
  Util.check_int (tag "total wear")
    (Array.fold_left ( + ) 0 naive.Naive.wear)
    (Device.total_wear dev)

let check_durable_images ?(capacity = capacity) ~op_no naive dev =
  let img = Device.peek_persistent dev ~addr:0 ~len:capacity in
  if not (Bytes.equal naive.Naive.persistent img) then
    Alcotest.failf "op %d: durable images differ" op_no

(* Where [run_ops] puts an access of [len] bytes: anywhere on the device,
   or across an interior chunk boundary (a one-byte access ends at one),
   half of the time one of the three between the device's four wear
   regions. *)
let anywhere rng ~len = Workloads.Rng.int rng (capacity - len)

let straddling rng ~len =
  let boundary =
    if Workloads.Rng.int rng 2 = 0 then
      region * (1 + Workloads.Rng.int rng 3)
    else chunk * (2 + Workloads.Rng.int rng ((capacity / chunk) - 3))
  in
  boundary - 1 - Workloads.Rng.int rng (max 1 (len - 1))

(* [zero_nt] turns a quarter of the NT stores into zero stores without
   changing the random stream, so a seed's addresses, lengths and crash
   points stay the same. [prelude] runs on both models first. *)
let run_ops ~seed ~ops ?(place = anywhere) ?(zero_nt = false)
    ?(prelude = fun _ _ -> ()) () =
  let rng = Workloads.Rng.create seed in
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let naive = Naive.create ~capacity ~timing:env.Env.timing () in
  prelude naive dev;
  check_agreement ~op_no:0 naive env dev;
  let payload = Bytes.create 16384 in
  for i = 0 to Bytes.length payload - 1 do
    Bytes.set payload i (Char.chr (Workloads.Rng.int rng 256))
  done;
  let buf_n = Bytes.create 16384 and buf_d = Bytes.create 16384 in
  for op_no = 1 to ops do
    (* addresses biased to a small window so lines collide across ops;
       lengths span sub-line writes up to multi-block transfers *)
    let len = 1 + Workloads.Rng.int rng 8192 in
    let addr = place rng ~len in
    let off = Workloads.Rng.int rng (Bytes.length payload - len) in
    (match Workloads.Rng.int rng 100 with
    | r when r < 30 ->
        Naive.store naive ~addr payload ~off ~len;
        Device.store dev ~addr payload ~off ~len
    | r when r < 50 && zero_nt && r >= 45 ->
        Naive.zero_nt naive ~addr ~len;
        Device.zero_nt dev ~addr ~len
    | r when r < 50 ->
        Naive.store_nt naive ~addr payload ~off ~len;
        Device.store_nt dev ~addr payload ~off ~len
    | r when r < 65 ->
        Naive.flush naive ~addr ~len;
        Device.flush dev ~addr ~len
    | r when r < 70 ->
        Naive.fence naive;
        Device.fence dev
    | r when r < 88 ->
        Naive.load naive ~addr buf_n ~off:0 ~len;
        Device.load dev ~addr buf_d ~off:0 ~len;
        if not (Bytes.equal (Bytes.sub buf_n 0 len) (Bytes.sub buf_d 0 len))
        then Alcotest.failf "op %d: loaded bytes differ" op_no
    | r when r < 92 ->
        if
          not
            (Bytes.equal
               (Naive.peek naive ~addr ~len)
               (Device.peek_persistent dev ~addr ~len))
        then Alcotest.failf "op %d: peeked bytes differ" op_no
    | r when r < 96 ->
        Naive.poke naive ~addr payload ~off ~len;
        Device.poke_persistent dev ~addr payload ~off ~len
    | _ ->
        Naive.crash naive;
        Device.crash dev;
        check_durable_images ~op_no naive dev);
    check_agreement ~op_no naive env dev
  done;
  (* settle everything and compare the final durable image *)
  Naive.flush naive ~addr:0 ~len:capacity;
  Device.flush dev ~addr:0 ~len:capacity;
  Naive.fence naive;
  Device.fence dev;
  check_agreement ~op_no:(ops + 1) naive env dev;
  check_durable_images ~op_no:(ops + 1) naive dev;
  Util.check_int "no dirty lines after full flush" 0 (Device.dirty_lines dev)

let test_differential_seed1 () = run_ops ~seed:1 ~ops:2500 ()
let test_differential_seed2 () = run_ops ~seed:42 ~ops:2500 ()

let test_chunk_straddles () =
  run_ops ~seed:11 ~ops:3000 ~place:straddling ()

let test_differential_zero_nt () =
  run_ops ~seed:0x2E50 ~ops:3000 ~zero_nt:true ()

(* The random mix on a device whose first temporal store, which makes
   its dirty-line bitmap, comes after [event]: first NT and zero stores
   over three wear regions, a flush and a fence with no line dirty, and a
   load. *)
let first_store_after event () =
  let prelude naive dev =
    let data = Bytes.init 9000 (fun i -> Char.chr (1 + (i mod 251))) in
    List.iter
      (fun (addr, len) ->
        Naive.store_nt naive ~addr data ~off:0 ~len;
        Device.store_nt dev ~addr data ~off:0 ~len)
      [ (100, 9000); (region - 300, 600); ((3 * region) + 5, 64) ];
    Naive.zero_nt naive ~addr:(chunk + 10) ~len:5000;
    Device.zero_nt dev ~addr:(chunk + 10) ~len:5000;
    Naive.flush naive ~addr:0 ~len:capacity;
    Device.flush dev ~addr:0 ~len:capacity;
    Naive.fence naive;
    Device.fence dev;
    let b_n = Bytes.create 700 and b_d = Bytes.create 700 in
    Naive.load naive ~addr:(region - 350) b_n ~off:0 ~len:700;
    Device.load dev ~addr:(region - 350) b_d ~off:0 ~len:700;
    if not (Bytes.equal b_n b_d) then Alcotest.fail "prelude: loads differ";
    match event with
    | `Crash ->
        Naive.crash naive;
        Device.crash dev
    | `Reset_faults ->
        Naive.reset_faults naive;
        Device.reset_faults dev
  in
  run_ops ~seed:0xF1257 ~ops:1500 ~zero_nt:true ~prelude ()

(* Narrow window: nearly every op hits the same few blocks, maximising
   dirty/clean span alternation inside single bitmap words. *)
let test_differential_hot_window () =
  let rng = Workloads.Rng.create 7 in
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let naive = Naive.create ~capacity ~timing:env.Env.timing () in
  let payload = Bytes.make 512 'h' in
  let buf_n = Bytes.create 512 and buf_d = Bytes.create 512 in
  for op_no = 1 to 3000 do
    let len = 1 + Workloads.Rng.int rng 256 in
    let addr = 8192 + Workloads.Rng.int rng 4096 in
    (match Workloads.Rng.int rng 4 with
    | 0 ->
        Naive.store naive ~addr payload ~off:0 ~len;
        Device.store dev ~addr payload ~off:0 ~len
    | 1 ->
        Naive.store_nt naive ~addr payload ~off:0 ~len;
        Device.store_nt dev ~addr payload ~off:0 ~len
    | 2 ->
        Naive.flush naive ~addr ~len;
        Device.flush dev ~addr ~len
    | _ ->
        Naive.load naive ~addr buf_n ~off:0 ~len;
        Device.load dev ~addr buf_d ~off:0 ~len;
        if not (Bytes.equal (Bytes.sub buf_n 0 len) (Bytes.sub buf_d 0 len))
        then Alcotest.failf "op %d: loaded bytes differ" op_no);
    check_agreement ~op_no naive env dev
  done;
  Naive.crash naive;
  Device.crash dev;
  check_durable_images ~op_no:3001 naive dev

(* ------------------------------------------------------------------ *)
(* Sparse image: never-written chunks, set-up cost                      *)
(* ------------------------------------------------------------------ *)

let check_bytes ~op_no what a b =
  if not (Bytes.equal a b) then Alcotest.failf "op %d: %s differ" op_no what

(* A sixteen-chunk device written in one chunk: every other chunk reads
   as zero through loads and peeks, at the naive model's charges, and a
   temporal store into a never-written chunk merges with zeros. *)
let test_unwritten_chunks () =
  let capacity = 16 * chunk in
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let naive = Naive.create ~capacity ~timing:env.Env.timing () in
  let payload = Bytes.init 3000 (fun i -> Char.chr (1 + (i mod 255))) in
  Naive.store_nt naive ~addr:((3 * chunk) + 100) payload ~off:0 ~len:3000;
  Device.store_nt dev ~addr:((3 * chunk) + 100) payload ~off:0 ~len:3000;
  let op_no = ref 0 in
  let load_both ~addr ~len =
    incr op_no;
    let b_n = Bytes.create len and b_d = Bytes.create len in
    Naive.load naive ~addr b_n ~off:0 ~len;
    Device.load dev ~addr b_d ~off:0 ~len;
    check_bytes ~op_no:!op_no "loaded bytes" b_n b_d;
    check_agreement ~op_no:!op_no naive env dev;
    b_d
  in
  let zeros len = Bytes.make len '\000' in
  let expect_zeros ~addr ~len =
    check_bytes ~op_no:!op_no "never-written bytes" (zeros len)
      (load_both ~addr ~len);
    check_bytes ~op_no:!op_no "never-written durable bytes" (zeros len)
      (Device.peek_persistent dev ~addr ~len)
  in
  expect_zeros ~addr:0 ~len:4096;
  expect_zeros ~addr:((9 * chunk) + 777) ~len:3000;
  expect_zeros ~addr:(capacity - 64) ~len:64;
  expect_zeros ~addr:((5 * chunk) - 10) ~len:((2 * chunk) + 20);
  (* a load from the written range runs on into never-written chunk 4 *)
  ignore (load_both ~addr:((4 * chunk) - 4000) ~len:8000);
  let tail = Device.peek_persistent dev ~addr:(4 * chunk) ~len:4000 in
  check_bytes ~op_no:!op_no "chunk 4" (zeros 4000) tail;
  (* unaligned temporal store into never-written chunk 12: its boundary
     lines merge with the zeros around it *)
  let addr = (12 * chunk) + 33 in
  Naive.store naive ~addr payload ~off:0 ~len:200;
  Device.store dev ~addr payload ~off:0 ~len:200;
  ignore (load_both ~addr:(addr - 33) ~len:320);
  Naive.flush naive ~addr ~len:200;
  Device.flush dev ~addr ~len:200;
  Naive.crash naive;
  Device.crash dev;
  check_agreement ~op_no:(!op_no + 1) naive env dev;
  check_durable_images ~capacity ~op_no:(!op_no + 1) naive dev

(* Building a device costs what it touches: a 1 GiB device allocates
   less than 0.05% of its capacity (the index of its wear regions), not a
   capacity-sized image, dirty bitmap, wear table or chunk table. *)
let test_create_cost () =
  let capacity = 1 lsl 30 in
  let before = Gc.allocated_bytes () in
  let env = Sys.opaque_identity (Pmem.Env.create ~capacity ()) in
  let used = Gc.allocated_bytes () -. before in
  if used >= 0.0005 *. float_of_int capacity then
    Alcotest.failf "Env.create of %d bytes allocated %.0f bytes" capacity used;
  (* still a working device at its far end *)
  let dev = env.Env.dev in
  Device.store_nt dev ~addr:(capacity - 64) (Bytes.make 64 'z') ~off:0 ~len:64;
  Util.check_str "far end" (String.make 64 'z')
    (Bytes.to_string (Device.load_bytes dev ~addr:(capacity - 64) ~len:64))

(* ------------------------------------------------------------------ *)
(* Released devices                                                     *)
(* ------------------------------------------------------------------ *)

let junk = Bytes.init capacity (fun i -> Char.chr (1 + (i * 37 mod 253)))

(* Every chunk of both images written with non-zero bytes, through
   stores, NT stores, zero stores, flushes and a partial crash that keeps
   some pending lines and reverts others, then released. *)
let dirty_and_release dev =
  Device.store_nt dev ~addr:0 junk ~off:0 ~len:capacity;
  Device.fence dev;
  Device.journal_begin dev;
  Device.store dev ~addr:3 junk ~off:0 ~len:(capacity - 3);
  Device.flush dev ~addr:0 ~len:(capacity / 2);
  Device.zero_nt dev ~addr:(chunk + 100) ~len:5000;
  Device.store dev ~addr:0 junk ~off:1 ~len:(capacity - 1);
  Device.crash_partial dev
    ~survivors:
      [
        { Device.s_line = 0; s_keep = 0; s_tear = 0 };
        { s_line = (capacity / line_size) - 1; s_keep = 1; s_tear = 0 };
      ];
  Device.release dev

(* Released chunks come back as fresh ones. A device is dirtied
   everywhere and released; the next device of the same capacity on this
   domain writes every chunk of both images without allocating a chunk
   or a table, and is dirtied and released in turn; the one after it
   runs the seeded differential trace against [Naive] on those recycled
   chunks, durable and shadow. *)
let test_recycled_chunks () =
  dirty_and_release (Pmem.Env.create ~capacity ()).Env.dev;
  let dev = (Pmem.Env.create ~capacity ()).Env.dev in
  let words =
    Util.direct_major_words (fun () ->
        Device.store_nt dev ~addr:0 junk ~off:0 ~len:capacity;
        Device.store dev ~addr:0 junk ~off:0 ~len:capacity)
  in
  if words > 0. then
    Alcotest.failf "writing recycled images allocated %.0f major words" words;
  dirty_and_release dev;
  run_ops ~seed:0x2EC1 ~ops:2500 ~zero_nt:true ()

(* A released device raises on every operation on its images, journal or
   life cycle; its counters stay readable. *)
let test_released_refuses () =
  let env = Pmem.Env.create ~capacity:(4 * chunk) () in
  let dev = env.Env.dev in
  let b = Bytes.make 64 'r' in
  Device.store_nt dev ~addr:0 b ~off:0 ~len:64;
  Device.release dev;
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s on a released device" what
    | exception Invalid_argument _ -> ()
  in
  refused "store" (fun () -> Device.store dev ~addr:0 b ~off:0 ~len:64);
  refused "store_nt" (fun () -> Device.store_nt dev ~addr:0 b ~off:0 ~len:64);
  refused "zero_nt" (fun () -> Device.zero_nt dev ~addr:0 ~len:64);
  refused "load" (fun () -> Device.load dev ~addr:0 b ~off:0 ~len:64);
  refused "flush" (fun () -> Device.flush dev ~addr:0 ~len:64);
  refused "fence" (fun () -> Device.fence dev);
  refused "crash" (fun () -> Device.crash dev);
  refused "peek" (fun () -> ignore (Device.peek_persistent dev ~addr:0 ~len:64));
  refused "poke" (fun () -> Device.poke_persistent dev ~addr:0 b ~off:0 ~len:64);
  refused "journal_begin" (fun () -> Device.journal_begin dev);
  refused "resume" (fun () -> Device.resume dev);
  refused "release" (fun () -> Device.release dev);
  Util.check_int "wear stays readable" 1 (Device.total_wear dev);
  Util.check_int "NT stores counted" 1 env.Env.stats.Stats.nt_stores

(* ------------------------------------------------------------------ *)
(* Zero stores                                                          *)
(* ------------------------------------------------------------------ *)

(* Zeroing never-written chunks allocates none of them: the whole of a
   1 GiB device is zeroed in under 1% of its capacity, and reads back as
   zeros. *)
let test_zero_nt_keeps_absent_chunks () =
  let capacity = 1 lsl 30 in
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let before = Gc.allocated_bytes () in
  Device.zero_nt dev ~addr:0 ~len:capacity;
  let used = Gc.allocated_bytes () -. before in
  if used >= 0.01 *. float_of_int capacity then
    Alcotest.failf "zero_nt of %d never-written bytes allocated %.0f bytes"
      capacity used;
  Util.check_int "one NT store per 64 KiB" (capacity / zero_piece)
    env.Env.stats.Stats.nt_stores;
  List.iter
    (fun addr ->
      let len = 3 * chunk in
      check_bytes ~op_no:0 "zeroed bytes" (Bytes.make len '\000')
        (Device.load_bytes dev ~addr ~len))
    [ 0; (capacity / 2) + 4097; capacity - (3 * chunk) ]

(* Over written data, zero_nt zeroes its range and nothing else:
   unaligned ends, three chunks, and a dirty cached line inside the range
   that the store must invalidate. *)
let test_zero_nt_exact_range () =
  let capacity = 8 * chunk in
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let data = Bytes.init capacity (fun i -> Char.chr (1 + (i * 31 mod 251))) in
  Device.store_nt dev ~addr:0 data ~off:0 ~len:capacity;
  Device.store dev ~addr:((2 * chunk) + 100) (Bytes.make 10 'c') ~off:0
    ~len:10;
  let addr = chunk + 401 and len = (2 * chunk) + 333 in
  Device.zero_nt dev ~addr ~len;
  Util.check_int "covered dirty line written back" 0 (Device.dirty_lines dev);
  let expect = Bytes.copy data in
  Bytes.fill expect addr len '\000';
  check_bytes ~op_no:0 "durable image" expect
    (Device.peek_persistent dev ~addr:0 ~len:capacity);
  check_bytes ~op_no:0 "loaded image" expect
    (Device.load_bytes dev ~addr:0 ~len:capacity)

(* zero_nt is store_nt of a zero buffer to every observer: simulated
   time, media charge, NT-store and byte counters, fast/slow-path hits,
   wear, dirty lines, the durable image, and the persist-order journal's
   pending versions. Each range is at most one 64 KiB piece; ranges hit
   never-written chunks, written ones and dirty cached lines. *)
let test_zero_nt_bookkeeping () =
  let capacity = 8 * chunk in
  let mk () =
    let env = Pmem.Env.create ~capacity () in
    Device.journal_begin env.Env.dev;
    env
  in
  let a = mk () and b = mk () in
  let zeros = Bytes.make zero_piece '\000' in
  let payload = Bytes.init 9000 (fun i -> Char.chr (i land 0xFF)) in
  let both f =
    f a.Env.dev;
    f b.Env.dev
  in
  let ranges =
    [
      (0, 64);
      (100, 5000);
      ((3 * chunk) - 70, 140);
      ((5 * chunk) + 3, chunk - 3);
      (4096, 4096);
      ((6 * chunk) + 1000, 1);
    ]
  in
  both (fun d -> Device.store_nt d ~addr:2000 payload ~off:0 ~len:9000);
  both (fun d ->
      Device.store d ~addr:((3 * chunk) - 10) payload ~off:0 ~len:20);
  both Device.fence;
  List.iteri
    (fun i (addr, len) ->
      Device.store_nt a.Env.dev ~addr zeros ~off:0 ~len;
      Device.zero_nt b.Env.dev ~addr ~len;
      let tag msg = Printf.sprintf "range %d: %s" i msg in
      check_float (tag "clock") (Env.now a) (Env.now b);
      check_float (tag "media_ns") a.Env.stats.Stats.media_ns
        b.Env.stats.Stats.media_ns;
      let count name f =
        Util.check_int (tag name) (f a.Env.stats) (f b.Env.stats)
      in
      count "nt_stores" (fun s -> s.Stats.nt_stores);
      count "pm_write_bytes" (fun s -> s.Stats.pm_write_bytes);
      count "fast path" (fun s -> s.Stats.fast_path_hits);
      count "slow path" (fun s -> s.Stats.slow_path_hits);
      Util.check_int (tag "dirty lines") (Device.dirty_lines a.Env.dev)
        (Device.dirty_lines b.Env.dev);
      for blk = 0 to (capacity / Device.block_size) - 1 do
        Util.check_int (tag (Printf.sprintf "wear of block %d" blk))
          (Device.wear_of_block a.Env.dev blk)
          (Device.wear_of_block b.Env.dev blk)
      done;
      if Device.pending_now a.Env.dev <> Device.pending_now b.Env.dev then
        Alcotest.failf "%s" (tag "pending versions differ");
      check_bytes ~op_no:i "durable images"
        (Device.peek_persistent a.Env.dev ~addr:0 ~len:capacity)
        (Device.peek_persistent b.Env.dev ~addr:0 ~len:capacity))
    ranges

(* ------------------------------------------------------------------ *)
(* Persist-order journal vs a naive model                               *)
(* ------------------------------------------------------------------ *)

(* [Naive_journal] is the journal at its simplest: every line touched
   since [begin_] stays in one table, its base and every version are
   fresh copies of the line, and each fence walks every line. It rides
   on [Naive] for the cache and the durable image and runs the journal's
   hooks around each operation in the order the device runs them: an NT
   store captures its lines' bases and marks their cached content
   reached before it writes, and records their durable content after.
   Every zero store goes through those hooks, never-written lines
   included. *)
module Naive_journal = struct
  type version = { data : Bytes.t; nt : bool; mutable reached : bool }
  type line = { mutable base : Bytes.t; mutable versions : version list }
  (* [versions] newest first *)

  type t = {
    n : Naive.t;
    mutable on : bool;
    lines : (int, line) Hashtbl.t;
    mutable fences : int;
    summaries : (int, Device.pending_line array) Hashtbl.t;
    mutable trip : int;
    mutable trip_survivors : Device.survivor list;
  }

  let create n =
    {
      n;
      on = false;
      lines = Hashtbl.create 64;
      fences = 0;
      summaries = Hashtbl.create 16;
      trip = -1;
      trip_survivors = [];
    }

  let begin_ t =
    t.on <- true;
    Hashtbl.reset t.lines;
    Hashtbl.reset t.summaries;
    t.fences <- 0;
    t.trip <- -1

  let arm t ~fence ~survivors =
    t.trip <- fence;
    t.trip_survivors <- survivors

  let durable t l = Bytes.sub t.n.Naive.persistent (l * line_size) line_size

  let lines_of ~addr ~len =
    let first = addr / line_size in
    List.init (((addr + len - 1) / line_size) - first + 1) (( + ) first)

  let touch t l =
    match Hashtbl.find_opt t.lines l with
    | Some jl -> jl
    | None ->
        let jl = { base = durable t l; versions = [] } in
        Hashtbl.add t.lines l jl;
        jl

  let frontier jl = match jl.versions with v :: _ -> v.data | [] -> jl.base

  (* A store's post-store content: a new version, unless it equals the
     frontier, where an NT store still promotes the frontier. *)
  let push jl ~data ~nt =
    if Bytes.equal data (frontier jl) then begin
      if nt then match jl.versions with v :: _ -> v.reached <- true | [] -> ()
    end
    else jl.versions <- { data; nt; reached = nt } :: jl.versions

  (* A dirty line's cached content reaches the persistence domain. *)
  let reach t l =
    match Hashtbl.find_opt t.n.Naive.dirty l with
    | None -> ()
    | Some cached -> (
        let jl = touch t l in
        match jl.versions with
        | v :: _ -> v.reached <- true
        | [] ->
            jl.versions <-
              [ { data = Bytes.copy cached; nt = false; reached = true } ])

  let store t ~addr src ~off ~len =
    Naive.store t.n ~addr src ~off ~len;
    if t.on && len > 0 then
      List.iter
        (fun l ->
          push (touch t l)
            ~data:(Bytes.copy (Hashtbl.find t.n.Naive.dirty l))
            ~nt:false)
        (lines_of ~addr ~len)

  let nt t ~addr ~len write =
    if t.on && len > 0 then begin
      let ls = lines_of ~addr ~len in
      List.iter
        (fun l ->
          ignore (touch t l);
          reach t l)
        ls;
      write ();
      List.iter (fun l -> push (touch t l) ~data:(durable t l) ~nt:true) ls
    end
    else write ()

  let store_nt t ~addr src ~off ~len =
    nt t ~addr ~len (fun () -> Naive.store_nt t.n ~addr src ~off ~len)

  (* the device stores a zero range over 64 KiB as one NT store per
     64 KiB piece, so a line two pieces share gets two versions *)
  let zero_nt t ~addr ~len =
    let pos = ref addr and remaining = ref len in
    while !remaining > 0 do
      let addr = !pos and len = min !remaining zero_piece in
      nt t ~addr ~len (fun () -> Naive.zero_nt t.n ~addr ~len);
      pos := addr + len;
      remaining := !remaining - len
    done

  let flush t ~addr ~len =
    if t.on && len > 0 then List.iter (reach t) (lines_of ~addr ~len);
    Naive.flush t.n ~addr ~len

  let summary t =
    let acc =
      Hashtbl.fold
        (fun l jl acc ->
          match jl.versions with
          | [] -> acc
          | vs ->
              let n = List.length vs in
              let mask = ref 0 in
              List.iteri
                (fun i v -> if v.nt then mask := !mask lor (1 lsl (n - 1 - i)))
                vs;
              { Device.p_line = l; p_versions = n; p_nt_mask = !mask } :: acc)
        t.lines []
    in
    Array.of_list
      (List.sort
         (fun (a : Device.pending_line) b -> compare a.p_line b.p_line)
         acc)

  let commit t =
    Hashtbl.iter
      (fun _ jl ->
        let rec split newer = function
          | [] -> ()
          | v :: older ->
              if v.reached then begin
                jl.base <- Bytes.copy v.data;
                jl.versions <- List.rev newer
              end
              else split (v :: newer) older
        in
        split [] jl.versions)
      t.lines

  let crash_partial t ~survivors =
    Hashtbl.iter
      (fun l jl ->
        match jl.versions with
        | v :: _ ->
            Bytes.blit v.data 0 t.n.Naive.persistent (l * line_size) line_size
        | [] -> ())
      t.lines;
    List.iter
      (fun (s : Device.survivor) ->
        match Hashtbl.find_opt t.lines s.s_line with
        | None -> ()
        | Some jl ->
            (* index 0 is the base, [k] the k-th version, oldest first *)
            let vs =
              Array.of_list
                (jl.base :: List.rev_map (fun v -> v.data) jl.versions)
            in
            let keep = max 0 (min (Array.length vs - 1) s.s_keep) in
            let content = Bytes.copy vs.(keep) in
            if keep > 0 then
              for c = 0 to 7 do
                if s.s_tear land (1 lsl c) <> 0 then
                  Bytes.blit vs.(keep - 1) (c * 8) content (c * 8) 8
              done;
            Bytes.blit content 0 t.n.Naive.persistent (s.s_line * line_size)
              line_size)
      survivors;
    Naive.crash t.n;
    Hashtbl.reset t.lines

  let fence t =
    if t.on then begin
      if t.trip < 0 then Hashtbl.replace t.summaries t.fences (summary t);
      let here = t.fences in
      t.fences <- here + 1;
      if t.trip = here then begin
        crash_partial t ~survivors:t.trip_survivors;
        raise Device.Crashed
      end
      else commit t
    end;
    Naive.fence t.n
end

type jop =
  | J_store of { addr : int; off : int; len : int }
  | J_store_nt of { addr : int; off : int; len : int }
  | J_zero of { addr : int; len : int }
  | J_flush of { addr : int; len : int }
  | J_fence

(* Eight regions. Data stores land in regions 0-3, mostly in a 1 KiB
   window across the region 1/2 boundary, so lines collide and ranges
   straddle chunks; one access in five may land anywhere, so regions 4-7
   are never written or only zeroed. *)
let jcapacity = 8 * region
let hot_start = (2 * region) - 512

(* The payload's first 4 KiB are zeros and the next 4 KiB all 'a', so
   stores often repeat a line's content (and add no version). *)
let jpayload =
  let rng = Workloads.Rng.create 0x70C in
  Bytes.init 16384 (fun i ->
      if i < 4096 then '\000'
      else if i < 8192 then 'a'
      else Char.chr (Workloads.Rng.int rng 256))

let gen_jop rng =
  let pick n = Workloads.Rng.int rng n in
  let len = if pick 10 < 7 then 1 + pick 200 else 1 + pick 9000 in
  let addr =
    match pick 10 with
    | r when r < 5 -> hot_start + pick 1024
    | r when r < 8 -> pick ((4 * region) - len)
    | _ -> pick (jcapacity - len)
  in
  let off =
    match pick 3 with
    | 0 when len <= 4096 -> 0
    | 1 when len <= 4096 -> 4096
    | _ -> pick (Bytes.length jpayload - len)
  in
  match pick 100 with
  | r when r < 30 -> J_store { addr; off; len }
  | r when r < 50 -> J_store_nt { addr; off; len }
  | r when r < 60 -> J_zero { addr; len }
  | r when r < 80 -> J_flush { addr; len }
  | _ -> J_fence

(* A short unjournalled prefix leaves lines dirty whose stores predate
   [journal_begin]; then the journalled trace. *)
let gen_trace ~seed =
  let rng = Workloads.Rng.create seed in
  let prefix =
    List.init 8 (fun i ->
        let addr = hot_start + Workloads.Rng.int rng 1024 in
        let len = 1 + Workloads.Rng.int rng 300 in
        if i mod 2 = 0 then J_store { addr; off = 8192; len }
        else J_store_nt { addr; off = 9000; len })
  in
  (prefix, List.init 120 (fun _ -> gen_jop rng))

let device_op dev = function
  | J_store { addr; off; len } -> Device.store dev ~addr jpayload ~off ~len
  | J_store_nt { addr; off; len } ->
      Device.store_nt dev ~addr jpayload ~off ~len
  | J_zero { addr; len } -> Device.zero_nt dev ~addr ~len
  | J_flush { addr; len } -> Device.flush dev ~addr ~len
  | J_fence -> Device.fence dev

let naive_op nj = function
  | J_store { addr; off; len } ->
      Naive_journal.store nj ~addr jpayload ~off ~len
  | J_store_nt { addr; off; len } ->
      Naive_journal.store_nt nj ~addr jpayload ~off ~len
  | J_zero { addr; len } -> Naive_journal.zero_nt nj ~addr ~len
  | J_flush { addr; len } -> Naive_journal.flush nj ~addr ~len
  | J_fence -> Naive_journal.fence nj

let crashes f = match f () with () -> false | exception Device.Crashed -> true

let check_pending what (naive : Device.pending_line array) device =
  if naive <> device then
    Alcotest.failf "%s: naive %d pending lines, device %d (or they differ)"
      what (Array.length naive) (Array.length device)

(* One lockstep run of [trace]: fresh device and model, the prefix with
   the journal off, then the journalled trace. Unarmed, every fence's
   pending summary is compared as it is recorded. Returns the index of
   the op at which an armed crash tripped, or [None]. *)
let journal_run ?(capacity = jcapacity) ?arm (prefix, trace) =
  let env = Pmem.Env.create ~capacity () in
  let dev = env.Env.dev in
  let nj =
    Naive_journal.create (Naive.create ~capacity ~timing:env.Env.timing ())
  in
  List.iter
    (fun op ->
      device_op dev op;
      naive_op nj op)
    prefix;
  Device.journal_begin dev;
  Naive_journal.begin_ nj;
  Option.iter
    (fun (fence, survivors) ->
      Device.arm_crash dev ~fence ~survivors;
      Naive_journal.arm nj ~fence ~survivors)
    arm;
  let rec go k = function
    | [] -> None
    | op :: rest ->
        let d = crashes (fun () -> device_op dev op) in
        let n = crashes (fun () -> naive_op nj op) in
        if d <> n then
          Alcotest.failf "op %d: device crashed %b, naive model crashed %b" k d
            n;
        if d then Some k
        else begin
          if op = J_fence && arm = None then begin
            let i = Device.fence_count dev - 1 in
            check_pending
              (Printf.sprintf "fence %d" i)
              (Hashtbl.find nj.Naive_journal.summaries i)
              (Device.fence_pending dev i)
          end;
          go (k + 1) rest
        end
  in
  let tripped = go 0 trace in
  (dev, nj, tripped)

let check_journal_images what dev nj =
  let n = nj.Naive_journal.n.Naive.persistent in
  if
    not
      (Bytes.equal n (Device.peek_persistent dev ~addr:0 ~len:(Bytes.length n)))
  then Alcotest.failf "%s: durable images differ" what

(* A survivor vector over [pending]: most pending lines, keeps from -1 to
   two past the line's versions, tear masks with bits above the low
   eight, and a few lines that are not pending (committed, or never
   touched). *)
let draw_survivors rng (pending : Device.pending_line array) =
  let pick n = Workloads.Rng.int rng n in
  let tear () = if pick 3 = 0 then pick 512 else 0 in
  let named =
    List.filter_map
      (fun (p : Device.pending_line) ->
        if pick 4 = 0 then None
        else
          Some
            {
              Device.s_line = p.p_line;
              s_keep = pick (p.p_versions + 3) - 1;
              s_tear = tear ();
            })
      (Array.to_list pending)
  in
  let stray =
    List.init (pick 4) (fun _ ->
        {
          Device.s_line = (hot_start / line_size) + pick 16;
          s_keep = pick 3;
          s_tear = tear ();
        })
  in
  named @ stray

(* Lockstep runs of the traces [gen] makes at [seeds] on a device of
   [capacity], with survivor vectors from [draw]: every fence's summary
   and the end-of-trace one, 24 crashes at the end of the trace, and an
   armed crash at every fence and past the last. *)
let journal_vs_naive ?capacity ~gen ~draw seeds =
  let journal_run = journal_run ?capacity in
  List.iter
    (fun seed ->
      let trace = gen ~seed in
      let tag msg = Printf.sprintf "seed %d: %s" seed msg in
      (* profile: every fence's summary, the end-of-trace summary *)
      let dev, nj, _ = journal_run trace in
      let nf = Device.fence_count dev in
      Util.check_int (tag "fences") nj.Naive_journal.fences nf;
      let at_end = Device.pending_now dev in
      check_pending (tag "end of trace") (Naive_journal.summary nj) at_end;
      let pending i = if i = nf then at_end else Device.fence_pending dev i in
      let rng = Workloads.Rng.create (seed lxor 0x5EED) in
      (* crash_partial at the end of the trace *)
      for v = 1 to 24 do
        let survivors = draw rng at_end in
        let dev, nj, _ = journal_run trace in
        Device.crash_partial dev ~survivors;
        Naive_journal.crash_partial nj ~survivors;
        check_journal_images (tag (Printf.sprintf "vector %d" v)) dev nj
      done;
      (* an armed crash at every fence, and past the last one *)
      for fence = 0 to nf do
        let survivors = draw rng (pending fence) in
        let dev, nj, tripped = journal_run ~arm:(fence, survivors) trace in
        if tripped = None then begin
          if fence < nf then
            Alcotest.failf "%s" (tag "armed fence not reached");
          Device.crash_partial dev ~survivors;
          Naive_journal.crash_partial nj ~survivors
        end;
        check_journal_images
          (tag (Printf.sprintf "armed at fence %d" fence))
          dev nj
      done)
    seeds

let test_journal_vs_naive () =
  journal_vs_naive ~gen:gen_trace ~draw:draw_survivors
    [ 1; 0x5107; 0xC0FFEE ]

(* jbd2-shaped traces on a 16-region device. Each commit zeroes one to
   four consecutive 4 KiB blocks at a journal head in never-written
   regions 4-11, the way a jbd2 commit stores its content-free blocks.
   Before its fence a commit may touch the lines it just zeroed, in
   random order: a temporal store, an NT store, a flush over the blocks
   (writing back the stored lines) and a second zero store that starts
   inside them and may run past their end; it may also zero over dirty
   lines of the hot window. A third of the commits fence right after
   their zero blocks. A touch that reaches the durable image writes its
   chunk, so a zero store over that block later goes through the
   per-line hooks; most commits move the head on to a fresh region. One
   commit also zeroes 100,000 bytes across regions 13-15 (two pieces,
   each straddling a region boundary), and the trace ends with zero
   blocks that no fence commits. The unjournalled prefix also leaves a
   line of the first commit's first block dirty, with zeros or 'a's
   cached over a never-written chunk. *)
let zcapacity = 16 * region
let journal_area = 4 * region

let gen_jbd2_trace ~seed =
  let rng = Workloads.Rng.create seed in
  let pick n = Workloads.Rng.int rng n in
  let head = ref (journal_area + (pick 12 * 4096)) in
  let prefix =
    let len = 1 + pick 90 in
    fst (gen_trace ~seed)
    @ [ J_store { addr = !head + pick (4096 - len); off = 4096 * pick 2; len } ]
  in
  let zero_blocks () =
    let start = !head and blocks = 1 + pick 4 in
    head := start + (blocks * 4096);
    ( start,
      blocks * 4096,
      List.init blocks (fun b -> J_zero { addr = start + (b * 4096); len = 4096 })
    )
  in
  let payload_off len = if pick 2 = 0 then 4096 else 8192 + pick (8192 - len) in
  let commit k =
    if k > 0 && pick 3 > 0 then
      head := ((!head / region) + 1) * region + (pick 12 * 4096);
    let start, span, zeros = zero_blocks () in
    let inside len = start + pick (span - len) in
    let touches =
      if pick 3 = 0 then []
      else
        let store =
          let len = 1 + pick 200 in
          [ J_store { addr = inside len; off = payload_off len; len } ]
        in
        let store_nt =
          let len = 1 + pick 300 in
          [ J_store_nt { addr = inside len; off = payload_off len; len } ]
        in
        let flush = [ J_flush { addr = start; len = span } ] in
        let rezero = [ J_zero { addr = inside 1; len = 1 + pick 6000 } ] in
        let hot =
          let addr = hot_start + pick 1024 and len = 1 + pick 300 in
          [ J_store { addr; off = 8192; len }; J_zero { addr; len } ]
        in
        List.filter (fun _ -> pick 4 > 0) [ store; store_nt; flush; rezero; hot ]
        |> List.map (fun ops -> (pick 1000, ops))
        |> List.sort compare |> List.concat_map snd
    in
    let long =
      if k = 1 then [ J_zero { addr = (14 * region) - 3000; len = 100_000 } ]
      else []
    in
    zeros @ long @ touches @ [ J_fence ]
  in
  let commits = List.concat (List.init (4 + pick 3) commit) in
  let _, _, tail = zero_blocks () in
  (prefix, commits @ tail)

(* Survivors for jbd2-shaped traces: every pending line of the journal
   area, keeping 0, 1 or 2 versions (a one-version line clamps 2 to 1),
   with a tear on about half; [draw_survivors] over the hot window;
   and a few journal-area lines that are not pending, such as the blocks
   of earlier commits. *)
let draw_run_survivors rng (pending : Device.pending_line array) =
  let pick n = Workloads.Rng.int rng n in
  let first_area_line = journal_area / line_size in
  let area, hot =
    List.partition
      (fun (p : Device.pending_line) -> p.p_line >= first_area_line)
      (Array.to_list pending)
  in
  let tear () = if pick 2 = 0 then 1 + pick 255 else 0 in
  let named =
    List.mapi
      (fun i (p : Device.pending_line) ->
        { Device.s_line = p.p_line; s_keep = i mod 3; s_tear = tear () })
      area
  in
  let stray =
    List.init (pick 4) (fun _ ->
        {
          Device.s_line = first_area_line + pick 1024;
          s_keep = pick 3;
          s_tear = tear ();
        })
  in
  named @ draw_survivors rng (Array.of_list hot) @ stray

let test_jbd2_vs_naive () =
  journal_vs_naive ~capacity:zcapacity ~gen:gen_jbd2_trace
    ~draw:draw_run_survivors
    [ 2; 0x1BD2; 0xB10C; 0x2E0 ]

(* Traces whose cached versions outlive several fences. Each round
   stores into the hot window and fences without flushing, so the
   stored lines stay pending through the two to four epochs that follow.
   Those epochs hold NT stores and zero stores in regions 3 and 5 and
   flushes over the hot window, where the prefix left lines dirty with
   nothing journalled; from the second of them on, one brings an NT
   store into the carried range and one (maybe the same) a flush over
   it. While the range is carried, an armed crash at a later fence finds
   the journal holding its lines, so every operation must record; once
   the NT store or the flush has reached them and a fence has committed
   them, the epochs up to the armed one find the journal empty. *)
let gen_carried_trace ~seed =
  let rng = Workloads.Rng.create seed in
  let pick n = Workloads.Rng.int rng n in
  let payload_off len = 8192 + pick (8192 - len) in
  let elsewhere () =
    let len = 1 + pick 300 in
    let addr = ((if pick 2 = 0 then 3 else 5) * region) + pick (region - len) in
    match pick 3 with
    | 0 -> J_store_nt { addr; off = payload_off len; len }
    | 1 -> J_zero { addr; len }
    | _ -> J_flush { addr = hot_start + pick (1024 - len); len }
  in
  let round () =
    let len = 1 + pick 100 in
    let addr = hot_start + pick (1024 - len) in
    let quiet = 2 + pick 3 in
    let nt_at = 1 + pick (quiet - 1) and flush_at = 1 + pick (quiet - 1) in
    let epoch e =
      let hits =
        (if e = nt_at then
           let n = 1 + pick 64 in
           [ J_store_nt { addr = addr + pick len; off = payload_off n; len = n } ]
         else [])
        @ if e = flush_at then [ J_flush { addr; len } ] else []
      in
      let ops =
        List.map
          (fun op -> (pick 1000, op))
          (hits @ List.init (pick 4) (fun _ -> elsewhere ()))
      in
      List.map snd (List.sort compare ops) @ [ J_fence ]
    in
    J_store { addr; off = payload_off len; len }
    :: J_fence
    :: List.concat (List.init quiet epoch)
  in
  (fst (gen_trace ~seed), List.concat (List.init 4 (fun _ -> round ())))

let test_carried_vs_naive () =
  journal_vs_naive ~gen:gen_carried_trace ~draw:draw_survivors
    [ 3; 0xCA5; 0x9E57 ]

(* The journal's one rule through a plain [journal_begin]: a temporal
   or NT store that rewrites a line's frontier content leaves the pending
   summary as it was, while one that changes the content adds a version;
   and a zero store over never-written chunks leaves nothing pending at
   the next fence. *)
let test_unchanged_store () =
  let env = Pmem.Env.create ~capacity:(4 * region) () in
  let dev = env.Env.dev in
  let x = Bytes.make 128 'x' and y = Bytes.make 64 'y' in
  Device.store_nt dev ~addr:0 x ~off:0 ~len:128;
  Device.fence dev;
  Device.journal_begin dev;
  let pending what expect =
    let got =
      Array.to_list
        (Array.map
           (fun (p : Device.pending_line) -> (p.p_line, p.p_versions))
           (Device.pending_now dev))
    in
    if got <> expect then
      Alcotest.failf "%s: pending (line, versions) %s" what
        (String.concat " "
           (List.map (fun (l, n) -> Printf.sprintf "(%d, %d)" l n) got))
  in
  Device.store dev ~addr:10 x ~off:0 ~len:20;
  Device.store_nt dev ~addr:64 x ~off:0 ~len:64;
  pending "committed content rewritten" [];
  Device.store dev ~addr:64 y ~off:0 ~len:64;
  pending "new content" [ (1, 1) ];
  Device.store dev ~addr:64 y ~off:0 ~len:64;
  Device.store dev ~addr:100 y ~off:0 ~len:8;
  Device.store_nt dev ~addr:64 y ~off:0 ~len:64;
  pending "frontier rewritten" [ (1, 1) ];
  Device.store dev ~addr:64 x ~off:0 ~len:64;
  pending "changed again" [ (1, 2) ];
  Device.flush dev ~addr:0 ~len:128;
  Device.fence dev;
  Device.zero_nt dev ~addr:(2 * region) ~len:(3 * 4096);
  Device.fence dev;
  Util.check_int "fences" 2 (Device.fence_count dev);
  pending "after the zero store's fence" [];
  Util.check_int "pending at the zero store's fence" 0
    (Array.length (Device.fence_pending dev 1))

let suite =
  [
    tc "differential vs naive model (seed 1)" `Quick test_differential_seed1;
    tc "differential vs naive model (seed 42)" `Quick test_differential_seed2;
    tc "differential, hot 4K window" `Quick test_differential_hot_window;
    tc "differential, chunk-straddling accesses" `Quick test_chunk_straddles;
    tc "never-written chunks read as zero" `Quick test_unwritten_chunks;
    tc "device set-up allocates under 0.05% of capacity" `Quick
      test_create_cost;
    tc "recycled chunks read as fresh" `Quick test_recycled_chunks;
    tc "a released device refuses access" `Quick test_released_refuses;
    tc "differential with zero stores (seed 0x2E50)" `Quick
      test_differential_zero_nt;
    tc "first temporal store after a crash" `Quick
      (first_store_after `Crash);
    tc "first temporal store after reset_faults" `Quick
      (first_store_after `Reset_faults);
    tc "zero_nt leaves never-written chunks unallocated" `Quick
      test_zero_nt_keeps_absent_chunks;
    tc "zero_nt zeroes exactly its range" `Quick test_zero_nt_exact_range;
    tc "zero_nt bookkeeping = store_nt of zeros" `Quick
      test_zero_nt_bookkeeping;
    tc "persist-order journal vs naive model" `Quick test_journal_vs_naive;
    tc "zero runs vs naive model, jbd2-shaped traces" `Quick
      test_jbd2_vs_naive;
    tc "versions carried across quiet epochs vs naive model" `Quick
      test_carried_vs_naive;
    tc "a store that changes no content adds no version" `Quick
      test_unchanged_store;
  ]
