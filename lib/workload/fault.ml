(* Deterministic fault injection for the supervision layer.

   A plan is derived entirely from a seed: victim applications are
   drawn by shuffling the candidate list with [Util.Rng] (never
   [Random.self_init]), so the same seed over the same app list injects
   the same faults on every run, host and parallelism width — which is
   what lets the tests assert that a supervised batch reports *exactly*
   the planned failures. *)

type action =
  | Raise_transient of int
      (* raise Err Transient on the first [n] attempts, succeed after *)
  | Raise_fatal (* raise Err Fatal on every attempt *)
  | Stall (* burn past the fuel budget: the Cpu watchdog aborts *)
  | Corrupt_db (* hand the loader a corrupted profile database *)

type plan = { seed : int; victims : (string * action) list }

let action_name = function
  | Raise_transient n -> Printf.sprintf "raise-transient(%d)" n
  | Raise_fatal -> "raise-fatal"
  | Stall -> "stall"
  | Corrupt_db -> "corrupt-db"

let none = { seed = 0; victims = [] }

let plan ~seed ?(raise_transient = 0) ?(transient_failures = 1)
    ?(raise_fatal = 0) ?(stall = 0) ?(corrupt_db = 0) candidates =
  let wanted = raise_transient + raise_fatal + stall + corrupt_db in
  if wanted > List.length candidates then
    invalid_arg
      (Printf.sprintf "Fault.plan: %d victims requested from %d candidates"
         wanted (List.length candidates));
  let order = Array.of_list candidates in
  let rng = Util.Rng.create (seed lxor 0xFA_0175) in
  Util.Rng.shuffle rng order;
  let take = ref 0 in
  let pick n action =
    List.init n (fun _ ->
        let app = order.(!take) in
        incr take;
        (app, action))
  in
  let victims =
    pick raise_transient (Raise_transient (max 1 transient_failures))
    @ pick raise_fatal Raise_fatal
    @ pick stall Stall
    @ pick corrupt_db Corrupt_db
  in
  { seed; victims }

let victims plan = plan.victims
let seed plan = plan.seed
let action_for plan ~app = List.assoc_opt app plan.victims

let to_string plan =
  if plan.victims = [] then "no injected faults"
  else
    Printf.sprintf "seed %d: %s" plan.seed
      (String.concat ", "
         (List.map
            (fun (app, a) -> Printf.sprintf "%s:%s" app (action_name a))
            plan.victims))

(* ------------------------- artifact corruption -------------------- *)

(* Keep the first half: what a crashed non-atomic writer leaves behind.
   Always detectable by the DB parser — the site count and histogram
   terminators no longer match — unlike a bit flip, which can land in a
   free-text field. *)
let truncate_string s = String.sub s 0 (String.length s / 2)
