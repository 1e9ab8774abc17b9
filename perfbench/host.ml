(* Host-speed index.

   On a shared machine the speed of one core swings by tens of percent
   within seconds and drifts over minutes, as other tenants load the
   physical cores and the memory system; two runs of the same ops then
   differ by more than any bound worth gating.  So a fixed kernel that
   calls nothing in the libraries is timed between ops, off the clock,
   and each op's time is scaled by [reference_ms] over the kernel's time
   around it: the op's time on a host where the kernel takes
   [reference_ms].

   The kernel is random reads over a 64 MB buffer outside the OCaml
   heap.  It allocates nothing, so it does no GC work on the workload's
   heap.  Before each sample the whole buffer is read once in order, off
   the clock, so every sample starts with the buffer as cached as the
   host allows, whatever the op before it touched.  Of the kernels timed
   beside the workloads (a loop of indirect calls, these reads, a
   pointer chase over the same buffer, and their sums), these reads
   tracked the three workloads' own swings best overall; RATIONALE.md
   has the figures. *)

type clock =
  | Wall  (** the monotonic clock *)
  | Unblocked
      (** the monotonic clock, stopped while the process is blocked in a
          system call (unblocked_stubs.c) *)

external install_blocked_hooks : unit -> unit = "perfbench_blocked_install"
external blocked_ns : unit -> int = "perfbench_blocked_ns" [@@noalloc]

let () = install_blocked_hooks ()

(* Now, in ms, on [clock]. *)
let now_ms = function
  | Wall -> Spans.ms_of_ns (Spans.now_ns ())
  | Unblocked -> Spans.ms_of_ns (Spans.now_ns () - blocked_ns ())

let words = 1 lsl 23

let buffer =
  let b = Bigarray.(Array1.create int c_layout words) in
  Bigarray.Array1.fill b 1;
  b

(* One read per 64-byte line of the buffer, in order. *)
let warm () =
  let acc = ref 0 and i = ref 0 in
  while !i < words do
    acc := !acc + Bigarray.Array1.unsafe_get buffer !i;
    i := !i + 8
  done;
  ignore (Sys.opaque_identity !acc)

let kernel () =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    acc := !acc + Bigarray.Array1.unsafe_get buffer (!x land (words - 1))
  done;
  ignore (Sys.opaque_identity (!x + !acc))

(* The kernel's time (ms) now, on [clock]. *)
let sample ?(clock = Wall) () =
  warm ();
  let t = now_ms clock in
  kernel ();
  now_ms clock -. t

(* The kernel's typical time on the host this benchmark was tuned on, so
   scaled times read close to raw ones there. *)
let reference_ms = 4.5

(* [t] measured between kernel samples [before] and [after], at
   reference speed. *)
let scale t ~before ~after = t *. reference_ms /. ((before +. after) /. 2.)

(* Time [f ~tick] on [clock] at reference speed.  Each [tick] closes a
   piece: the clock stops, the kernel is sampled, and the piece is
   scaled by the samples on either side of it.  Returns (scaled s, raw
   s, v). *)
let timed ?(clock = Wall) f =
  let prev = ref (sample ~clock ()) and raw = ref 0. and scaled = ref 0. in
  let start = ref (now_ms clock) in
  let tick () =
    let piece = now_ms clock -. !start in
    let s = sample ~clock () in
    raw := !raw +. piece;
    scaled := !scaled +. scale piece ~before:!prev ~after:s;
    prev := s;
    start := now_ms clock
  in
  let v = f ~tick in
  tick ();
  (!scaled /. 1e3, !raw /. 1e3, v)
