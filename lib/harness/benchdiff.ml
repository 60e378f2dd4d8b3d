(** Perf-regression sentinel: the trajectory record, its JSON file, and
    the diff of two BENCH_PR*.json points.

    Every value the bench harness records is a {!point}: a key, its value
    and unit, and a declared {!gate}, the rule that judges it. [write]
    renders points as a schema-3 file whose numbers read back as the same
    floats; [load] also reads schema-2 files, whose one-decimal values
    are all labelled [ns_per_op] and declare no gate (a hand-rolled
    parser: the repo deliberately has no JSON dependency). [diff] judges
    every key common to both files by its gate:

    - {b exact}: a deterministic enumeration (litmus crash states,
      faultcheck outcomes), so a change in either direction regresses —
      the enumerated space silently changed;
    - {b sim}: simulated time or attainment, deterministic by
      construction, so any move the wrong way regresses and any move the
      right way improves;
    - {b host}: host time or a ratio of host times (Bechamel estimates,
      campaign wall times, dispatch overhead), which varies with the
      machine, so only a move beyond [host_band] is judged.

    A key takes its gate from the old file when that file declares one
    and from the new file otherwise; two files that declare different
    gates fail the key. Against a schema-2 baseline the new values are
    compared at that file's one-decimal precision. *)

(* --- minimal JSON ---------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* trajectory files are ASCII; keep it simple *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Arr [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

(* --- the trajectory record -------------------------------------------- *)

type gate = Exact | Sim_lower | Sim_higher | Host_lower | Host_higher

let gate_name = function
  | Exact -> "exact"
  | Sim_lower -> "sim-lower"
  | Sim_higher -> "sim-higher"
  | Host_lower -> "host-lower"
  | Host_higher -> "host-higher"

let gate_of_name s =
  List.find_opt
    (fun g -> gate_name g = s)
    [ Exact; Sim_lower; Sim_higher; Host_lower; Host_higher ]

type point = { key : string; value : float; unit : string; gate : gate }

(** Relative move a host key may make before it is judged. *)
let host_band = 0.5

(** The shortest decimal that reads back as [v]. *)
let number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p = 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

(* --- trajectory files ------------------------------------------------ *)

let schema = 3

type meta = {
  m_mode : string;  (** ["fast"]: a sim-only run that may omit keys *)
  m_seed : int option;
  m_stacks : string list;
}

type tests =
  | Declared of point list  (** schema 3, file order *)
  | Legacy of (string * float) list
      (** schema 2: key -> [ns_per_op] at one decimal, file order *)

type file = { f_path : string; f_meta : meta; f_tests : tests }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Write [points] as a schema-3 trajectory file. Raises
    [Invalid_argument], leaving [path] untouched, if a value is not
    finite: JSON has no spelling for it, and a diff could not judge it. *)
let write ~mode ~seed ~jobs ~stacks path points =
  List.iter
    (fun p ->
      if not (Float.is_finite p.value) then
        invalid_arg
          (Printf.sprintf "Benchdiff.write: %s is %f, not a finite value"
             p.key p.value))
    points;
  let str s = "\"" ^ json_escape s ^ "\"" in
  let tests =
    List.map
      (fun p ->
        Printf.sprintf "    %s: {\"value\": %s, \"unit\": %s, \"gate\": %s}"
          (str p.key) (number p.value) (str p.unit) (str (gate_name p.gate)))
      points
  in
  let tm = Unix.gmtime (Unix.time ()) in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"meta\": {\n\
    \    \"schema\": %d,\n\
    \    \"mode\": %s,\n\
    \    \"seed\": %d,\n\
    \    \"jobs\": %d,\n\
    \    \"stacks\": [%s]\n\
    \  },\n\
    \  \"tests\": {\n%s\n  },\n\
    \  \"date\": \"%04d-%02d-%02d\"\n\
     }\n"
    schema (str mode) seed jobs
    (String.concat ", " (List.map str stacks))
    (String.concat ",\n" tests)
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday;
  close_out oc

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let j = try parse body with Parse_error msg -> fail "%s" msg in
  let m =
    match member "meta" j with
    | Some m -> m
    | None ->
        fail
          "no \"meta\" block (a snapshot from before schema 2); regenerate \
           it with the current bench harness"
  in
  let int_field k =
    match member k m with Some (Num f) -> Some (int_of_float f) | _ -> None
  in
  let meta =
    {
      m_mode = (match member "mode" m with Some (Str s) -> s | _ -> "full");
      m_seed = int_field "seed";
      m_stacks =
        (match member "stacks" m with
        | Some (Arr l) -> List.filter_map (function Str s -> Some s | _ -> None) l
        | _ -> []);
    }
  in
  let kvs =
    match member "tests" j with
    | Some (Obj kvs) -> kvs
    | _ -> fail "no \"tests\" object"
  in
  let value k field v =
    match member field v with
    | Some (Num f) when Float.is_finite f -> f
    | _ -> fail "test %S has no finite %s" k field
  in
  let tests =
    match int_field "schema" with
    | None -> fail "meta without schema"
    | Some 2 -> Legacy (List.map (fun (k, v) -> (k, value k "ns_per_op" v)) kvs)
    | Some 3 ->
        Declared
          (List.map
             (fun (key, v) ->
               match (member "unit" v, member "gate" v) with
               | Some (Str unit), Some (Str g) -> (
                   match gate_of_name g with
                   | Some gate -> { key; value = value key "value" v; unit; gate }
                   | None -> fail "test %S has unknown gate %S" key g)
               | _ -> fail "test %S declares no unit and gate" key)
             kvs)
    | Some n -> fail "schema %d; bench-diff reads schemas 2 and 3" n
  in
  { f_path = path; f_meta = meta; f_tests = tests }

(* --- diff ------------------------------------------------------------ *)

type verdict =
  | Unchanged
  | Improved of float  (** relative delta, new vs old *)
  | Regressed of float
  | Gate_mismatch of gate  (** the new file's declaration *)

type entry = {
  e_key : string;
  e_old : float;
  e_new : float;  (** at the old file's precision *)
  e_unit : string;
  e_gate : gate;
  e_verdict : verdict;
}

type report = {
  r_entries : entry list;  (** old-file key order *)
  r_missing : string list;  (** keys in old absent from new *)
  r_added : string list;  (** keys in new absent from old *)
  r_notes : string list;  (** non-fatal meta warnings *)
  r_fast : bool;  (** the new file is a fast run, which may omit keys *)
}

let rel_delta old_v new_v =
  if old_v = new_v then 0.
  else if old_v = 0. then Float.of_int (compare new_v 0.)
  else (new_v -. old_v) /. Float.abs old_v

let judge gate old_v new_v =
  let rel = rel_delta old_v new_v in
  let worse =
    match gate with
    | Exact -> Float.abs rel
    | Sim_lower | Host_lower -> rel
    | Sim_higher | Host_higher -> -.rel
  in
  let band = match gate with Host_lower | Host_higher -> host_band | _ -> 0. in
  if worse > band then Regressed rel
  else if worse < -.band then Improved rel
  else Unchanged

(** [diff old_ new_] — [Error] when [new_] declares no gates (a schema-2
    candidate), otherwise the judged report. *)
let diff (old_f : file) (new_f : file) =
  match new_f.f_tests with
  | Legacy _ ->
      Error
        (Printf.sprintf
           "%s is schema 2: a candidate must declare its gates (schema %d); \
            regenerate it with the current bench harness"
           new_f.f_path schema)
  | Declared new_points ->
      let mo = old_f.f_meta and mn = new_f.f_meta in
      let notes =
        (if mo.m_seed <> mn.m_seed then
           [ "seeds differ: sim keys may drift legitimately" ]
         else [])
        @
        if mo.m_stacks <> mn.m_stacks && mn.m_stacks <> [] && mo.m_stacks <> []
        then [ "stack lists differ" ]
        else []
      in
      let new_tbl = Hashtbl.create 256 in
      List.iter (fun p -> Hashtbl.replace new_tbl p.key p) new_points;
      (* (key, value, declared point): a schema-2 baseline declares none *)
      let old_tests =
        match old_f.f_tests with
        | Declared ps -> List.map (fun p -> (p.key, p.value, Some p)) ps
        | Legacy kvs -> List.map (fun (k, v) -> (k, v, None)) kvs
      in
      let entries, missing =
        List.fold_left
          (fun (es, ms) (k, old_v, declared) ->
            match Hashtbl.find_opt new_tbl k with
            | None -> (es, k :: ms)
            | Some np ->
                Hashtbl.remove new_tbl k;
                let gate, unit, new_v =
                  match declared with
                  | Some op -> (op.gate, op.unit, np.value)
                  | None ->
                      ( np.gate,
                        np.unit,
                        float_of_string (Printf.sprintf "%.1f" np.value) )
                in
                let verdict =
                  if gate <> np.gate then Gate_mismatch np.gate
                  else judge gate old_v new_v
                in
                ( { e_key = k; e_old = old_v; e_new = new_v; e_unit = unit;
                    e_gate = gate; e_verdict = verdict }
                  :: es,
                  ms ))
          ([], []) old_tests
      in
      Ok
        {
          r_entries = List.rev entries;
          r_missing = List.rev missing;
          r_added =
            List.filter_map
              (fun p -> if Hashtbl.mem new_tbl p.key then Some p.key else None)
              new_points;
          r_notes = notes;
          r_fast = mn.m_mode = "fast";
        }

let with_verdict f r = List.filter (fun e -> f e.e_verdict) r.r_entries
let regressed = with_verdict (function Regressed _ -> true | _ -> false)
let improved = with_verdict (function Improved _ -> true | _ -> false)
let mismatched = with_verdict (function Gate_mismatch _ -> true | _ -> false)
let unchanged_count r = List.length (with_verdict (( = ) Unchanged) r)

(** The gate: regressions and gate mismatches always fail; missing keys
    fail unless the new file is a fast run. *)
let ok r =
  regressed r = [] && mismatched r = [] && (r.r_fast || r.r_missing = [])

(** The report as text: one line per note, gate mismatch, regression and
    improvement, then the missing and added counts and a summary. *)
let render r =
  let b = Buffer.create 1024 in
  List.iter (Printf.bprintf b "note: %s\n") r.r_notes;
  let pr tag es =
    List.iter
      (fun e ->
        match e.e_verdict with
        | Gate_mismatch g ->
            Printf.bprintf b "%-10s %-44s old declares %s, new declares %s\n"
              tag e.e_key (gate_name e.e_gate) (gate_name g)
        | Improved d | Regressed d ->
            Printf.bprintf b "%-10s %-44s %14s -> %-14s %s (%+.1f%%, %s)\n" tag
              e.e_key (number e.e_old) (number e.e_new) e.e_unit (100. *. d)
              (gate_name e.e_gate)
        | Unchanged -> ())
      es
  in
  pr "GATE" (mismatched r);
  pr "REGRESSED" (regressed r);
  pr "improved" (improved r);
  if r.r_missing <> [] then
    Printf.bprintf b "%s: %d key(s) in old absent from new%s\n"
      (if r.r_fast then "subset" else "MISSING")
      (List.length r.r_missing)
      (if r.r_fast then " (accepted: new is a fast run)" else "");
  if r.r_added <> [] then
    Printf.bprintf b "added: %d new key(s)\n" (List.length r.r_added);
  Printf.bprintf b
    "bench-diff: %d compared — %d regressed, %d improved, %d unchanged, %d \
     gate mismatch(es)%s\n"
    (List.length r.r_entries)
    (List.length (regressed r))
    (List.length (improved r))
    (unchanged_count r)
    (List.length (mismatched r))
    (if ok r then " — OK" else " — FAIL");
  Buffer.contents b
