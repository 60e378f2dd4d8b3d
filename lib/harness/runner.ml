(** Measurement and table-formatting helpers shared by the benchmark
    executable, the CLI and the examples. All times are simulated
    nanoseconds from the stack's clock. *)

type measurement = {
  label : string;
  ops : int;
  sim_ns : float;  (** total simulated time *)
  media_ns : float;  (** portion spent on the PM media *)
  stats : Pmem.Stats.t;  (** counter deltas for the measured section *)
}

let ns_per_op m = m.sim_ns /. float_of_int (max 1 m.ops)

let kops m = float_of_int m.ops /. (m.sim_ns /. 1e6)

(** [measure stack label f] runs [f ()] (which returns an op count) and
    captures simulated time and counters around it. *)
let measure (stack : Fs_config.stack) label f =
  let env = stack.Fs_config.env in
  let s0 = Pmem.Stats.copy env.Pmem.Env.stats in
  let t0 = Pmem.Env.now env in
  let ops = f () in
  let t1 = Pmem.Env.now env in
  let stats = Pmem.Stats.diff env.Pmem.Env.stats s0 in
  {
    label;
    ops;
    sim_ns = t1 -. t0;
    media_ns = stats.Pmem.Stats.media_ns;
    stats;
  }

(* --- plain-text tables --- *)

let hline widths =
  "+"
  ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
  ^ "+"

let render_row widths cells =
  "| "
  ^ String.concat " | "
      (List.map2
         (fun w c ->
           if String.length c >= w then c else c ^ String.make (w - String.length c) ' ')
         widths cells)
  ^ " |"

(** Print a table: header row + data rows, auto-sized columns. *)
let print_table ~title header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (hline widths);
  print_endline (render_row widths header);
  print_endline (hline widths);
  List.iter (fun row -> print_endline (render_row widths row)) rows;
  print_endline (hline widths)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f0 x = Printf.sprintf "%.0f" x
