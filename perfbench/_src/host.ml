(* The host record stamped on every result, so that numbers from
   different machines are never compared silently. *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let status_field key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.sub line 0 i) key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | Some _ | None -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on, from a list such as "0-1,4". *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' part with
          | [ "" ] -> acc
          | [ _ ] -> acc + 1
          | [ a; b ] -> acc + (int_of_string b - int_of_string a + 1)
          | _ -> acc)
        0 (String.split_on_char ',' list)

(* Peak resident set of this process so far, in MiB. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> failwith "Host.peak_rss_mb: malformed VmHWM")
  | None -> failwith "Host.peak_rss_mb: no VmHWM in /proc/self/status"

let size_bytes s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then 0
  else
    match s.[n - 1] with
    | 'K' -> 1024 * int_of_string (String.sub s 0 (n - 1))
    | 'M' -> 1024 * 1024 * int_of_string (String.sub s 0 (n - 1))
    | _ -> int_of_string s

(* Size of the unified or data cache at [level] seen by CPU 0, 0 when
   sysfs does not say. *)
let cache_bytes level =
  let dir i = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d" i in
  let first path = match read_lines path with l :: _ -> String.trim l | [] -> "" in
  let rec go i =
    if i > 7 then 0
    else if first (dir i ^ "/level") = string_of_int level && first (dir i ^ "/type") <> "Instruction"
    then size_bytes (first (dir i ^ "/size"))
    else go (i + 1)
  in
  go 0

let l2_bytes () = cache_bytes 2

let record () =
  let module J = Ftr_obs.Json in
  J.Obj
    [
      ("nproc", J.Int (nproc ()));
      ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", J.String Sys.ocaml_version);
      ("word_size", J.Int Sys.word_size);
      ("l2_bytes", J.Int (l2_bytes ()));
      ("l3_bytes", J.Int (cache_bytes 3));
    ]
