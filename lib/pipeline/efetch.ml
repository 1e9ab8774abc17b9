type t = {
  table : int array; (* signature slot -> predicted call target; 0 = cold *)
  line_bytes : int;
  mutable signature : int;
  mutable last_prediction : int;
  mutable predictions : int;
  mutable correct : int;
}

(* Leading lines of the predicted function prefetched per call. *)
let lines_ahead = 4

let create ?(line_bytes = 64) () =
  {
    table = Array.make 4096 0;
    line_bytes;
    signature = 0;
    last_prediction = 0;
    predictions = 0;
    correct = 0;
  }

let slot t = (t.signature * 0x9E3779B1 land max_int) mod Array.length t.table

let on_call t ~target =
  (* Score the previous prediction against what actually happened. *)
  if t.last_prediction <> 0 then begin
    t.predictions <- t.predictions + 1;
    if t.last_prediction = target then t.correct <- t.correct + 1
  end;
  (* Learn: the current signature led to [target]. *)
  let i = slot t in
  let predicted = t.table.(i) in
  t.table.(i) <- target;
  (* Advance the signature with the new call. *)
  t.signature <- (t.signature lsl 8) lxor target lxor (t.signature lsr 17);
  (* Predict the call after this one from the updated history. *)
  let next = t.table.(slot t) in
  t.last_prediction <- next;
  ignore predicted;
  if next = 0 then []
  else List.init lines_ahead (fun k -> next + (k * t.line_bytes))

let predictions t = t.predictions
let correct t = t.correct
