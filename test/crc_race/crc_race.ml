(** First CRC-32 computations racing across domains.

    Campaign domains share [Fsapi.Crc32]'s lookup table. In each round,
    four domains wait at a barrier, then each makes the first CRC-32 call
    of the process at the same moment; every one must return the standard
    check value. A table built lazily on first use fails here: a domain
    that forces it while another is building it raises
    [CamlinternalLazy.Undefined]. Only the first call of a process can
    race, so each round runs in a fresh child process (this executable
    with [--round]); the race shows in a fraction of rounds, so there are
    many. *)

let domains = 4
let rounds = 40

(* CRC-32/ISO-HDLC check value of "123456789". *)
let expected = 0xCBF43926

let round () =
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    match Fsapi.Crc32.string "123456789" with
    | crc when crc = expected -> None
    | crc -> Some (Printf.sprintf "got 0x%08X" crc)
    | exception e -> Some (Printexc.to_string e)
  in
  let failures =
    List.init domains (fun _ -> Domain.spawn worker)
    |> List.filter_map Domain.join
  in
  List.iter (Printf.eprintf "crc_race: %s\n") failures;
  exit (if failures = [] then 0 else 1)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--round" then round ()
  else begin
    let cmd = Filename.quote_command Sys.executable_name [ "--round" ] in
    let failed = ref 0 in
    for _ = 1 to rounds do
      if Sys.command cmd <> 0 then incr failed
    done;
    if !failed > 0 then begin
      Printf.eprintf "crc_race: %d of %d rounds failed\n" !failed rounds;
      exit 1
    end
  end
