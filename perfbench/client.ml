(* A [bagcq serve] child process and one closed-loop TCP connection to
   it: the next request is written only after the previous answer has
   been read, as a caller that waits for each answer would. *)

module Json = Bagcq_wire.Json

type t = {
  pid : int;
  err : in_channel;  (* the server's stderr; kept open so it never sees EPIPE *)
  ic : in_channel;
  oc : out_channel;
}

(* Servers not yet stopped, so an interrupted or failing run can still
   reap them ([kill_all]). *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Server defaults (one worker domain, one hunt domain) are what a run
   measures; only the port and the optional trace file are set. *)
let start ~exe ?trace () =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let args =
    [ exe; "serve"; "--port"; "0" ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process exe (Array.of_list args) null null err_w in
  live := pid :: !live;
  Unix.close err_w;
  Unix.close null;
  let err = Unix.in_channel_of_descr err_r in
  let fail msg =
    kill_all ();
    close_in_noerr err;
    failwith msg
  in
  let banner = try input_line err with End_of_file -> fail "server exited before listening" in
  let port =
    match String.rindex_opt banner ':' with
    | Some i -> int_of_string (String.trim (String.sub banner (i + 1) (String.length banner - i - 1)))
    | None -> fail ("unexpected server banner: " ^ banner)
  in
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.TCP_NODELAY true;
  (* A hung server turns into failed operations instead of a hung run;
     the server's own cap on a request is 10 s. *)
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 60.;
  (try Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error (e, _, _) -> fail ("connect: " ^ Unix.error_message e));
  { pid; err; ic = Unix.in_channel_of_descr sock; oc = Unix.out_channel_of_descr sock }

let roundtrip t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

(* Close the connection, ask the server to drain (SIGTERM), and wait
   for it: the trace file is complete only once the process is gone. *)
let stop t =
  (try close_out t.oc with Sys_error _ -> ());
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live;
  close_in_noerr t.err

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime of the server, in ms (/proc reports USER_HZ = 100). *)
let cpu_ms t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let after_comm = String.rindex s ')' + 2 in
  let f =
    Array.of_list (String.split_on_char ' ' (String.sub s after_comm (String.length s - after_comm)))
  in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.

(* Time the hypervisor ran something else on this guest's CPUs (the
   steal column of /proc/stat, all CPUs), in ms: wall-clock metrics of a
   run with much steal are the host's, not the program's. *)
let host_steal_ms () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  Scanf.sscanf line "cpu %d %d %d %d %d %d %d %d" (fun _ _ _ _ _ _ _ steal ->
      float_of_int steal *. 10.)

(* CPUs of this guest, as /proc/stat lists them. *)
let cpus () =
  String.split_on_char '\n' (read_file "/proc/stat")
  |> List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
  |> List.length

(* Peak resident set of the server so far, in MB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* The counter and gauge rows of the [metrics] op, keyed
   [name] or [name{k=v,...}]. *)
let metrics t =
  let resp = Json.parse_exn (roundtrip t {|{"op":"metrics"}|}) in
  let rows = match Json.member "metrics" resp with Some (Json.List l) -> l | _ -> [] in
  List.filter_map
    (fun row ->
      match (Json.get_string "name" row, Json.get_int "value" row) with
      | Some name, Some v ->
          let labels =
            match Json.member "labels" row with
            | Some (Json.Obj ((_ :: _) as kvs)) ->
                "{"
                ^ String.concat ","
                    (List.map
                       (fun (k, v) ->
                         k ^ "=" ^ match v with Json.Str s -> s | j -> Json.to_string j)
                       kvs)
                ^ "}"
            | _ -> ""
          in
          Some (name ^ labels, v)
      | _ -> None)
    rows
