(* The host-speed reference: a fixed piece of work that uses nothing from
   the repository, so no change to the program can move its time. The
   end-to-end timings are divided by its mean time, measured between the
   workload's sub-units, to cancel the host's slow phases.

   On a shared host, other tenants slow the workloads by 10-45% for tens
   of seconds at a time. The slowdown is in the memory system: over the
   same phases a pure arithmetic loop and a pointer chase over 8 MB
   slowed by 3-25%, the workloads by up to 44%. So the reference does
   what the simulator does most: it streams short-lived allocations
   through the minor heap, and it runs a toy discrete-event loop (a
   binary heap of timestamps, a hash table of flows, a queue of packet
   records per flow). *)

type pkt = { mutable seq : int; size : float; stamp : float }

type flow = {
  mutable sent : int;
  mutable rate : float;
  mutable rtt : float;
  q : pkt Queue.t;
}

(* Short-lived (float, int) pairs consed onto a list that is dropped
   every 1024 cells. *)
let stream n =
  let l = ref [] in
  for i = 1 to n do
    l := (float_of_int i, i) :: !l;
    if i land 1023 = 0 then l := []
  done;
  List.length !l

let n_flows = 20_000
let heap_cap = 4096

(* [events n]: [n] events of a toy packet simulation over [n_flows] flows
   with 1001 events pending at a time. *)
let events n =
  let times = Array.make heap_cap 0. and ids = Array.make heap_cap 0 in
  let size = ref 0 in
  let push t id =
    let i = ref !size in
    incr size;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      ids.(!i) <- ids.(p);
      i := p
    done;
    times.(!i) <- t;
    ids.(!i) <- id
  in
  let pop () =
    let t = times.(0) and id = ids.(0) in
    decr size;
    let lt = times.(!size) and lid = ids.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < lt then begin
          times.(!i) <- times.(c);
          ids.(!i) <- ids.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- lt;
    ids.(!i) <- lid;
    (t, id)
  in
  let flows = Hashtbl.create n_flows in
  for f = 0 to n_flows - 1 do
    Hashtbl.replace flows f { sent = 0; rate = 1.; rtt = 0.1; q = Queue.create () }
  done;
  let state = ref 12345 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  for i = 0 to 1000 do
    push (float_of_int (rand () mod 1000) *. 1e-3) i
  done;
  let acc = ref 0. in
  for _ = 1 to n do
    let t, id = pop () in
    let f = Hashtbl.find flows (((id * 7919) + rand ()) mod n_flows) in
    f.sent <- f.sent + 1;
    Queue.push { seq = f.sent; size = 1000.; stamp = t } f.q;
    if Queue.length f.q > 8 then begin
      let old = Queue.pop f.q in
      f.rtt <- (0.875 *. f.rtt) +. (0.125 *. (t -. old.stamp));
      f.rate <- old.size /. ((f.rtt *. sqrt (2. *. 0.01 /. 3.)) +. 1e-6);
      old.seq <- old.seq + 1;
      acc := !acc +. f.rate
    end;
    push (t +. 1e-4 +. (float_of_int (rand () land 1023) *. 1e-6)) id
  done;
  !acc

(* One reference run: 20-30 ms on a 2-vCPU Xeon. *)
let run () =
  ignore (Sys.opaque_identity (stream 1_000_000));
  ignore (Sys.opaque_identity (events 20_000))
