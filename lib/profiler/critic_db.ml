type site = {
  block_id : int;
  start_index : int;
  member_indices : int list;
  uids : int list;
  key : string;
  occurrences : int;
  criticality : float;
  convertible : bool;
}

let site_length s = List.length s.uids

type t = {
  sites : site list;
  total_work : int;
  ic_lengths : Util.Dist.Histogram.t;
  ic_spreads : Util.Dist.Histogram.t;
  chain_gaps : Util.Dist.Histogram.t;
}

let covered_instrs ?(convertible_only = false) t =
  List.fold_left
    (fun acc s ->
      if convertible_only && not s.convertible then acc
      else acc + (s.occurrences * site_length s))
    0 t.sites

let coverage t =
  if t.total_work = 0 then 0.0
  else
    min 1.0 (float_of_int (covered_instrs t) /. float_of_int t.total_work)

let convertible_coverage t =
  if t.total_work = 0 then 0.0
  else
    min 1.0
      (float_of_int (covered_instrs ~convertible_only:true t)
      /. float_of_int t.total_work)

let coverage_cdf ?(convertible_only = false) t =
  let sites =
    if convertible_only then List.filter (fun s -> s.convertible) t.sites
    else t.sites
  in
  let sorted =
    List.sort
      (fun a b ->
        compare
          (b.occurrences * site_length b)
          (a.occurrences * site_length a))
      sites
  in
  let n = List.length sorted in
  if n = 0 || t.total_work = 0 then []
  else begin
    let acc = ref 0 in
    List.mapi
      (fun i s ->
        acc := !acc + (s.occurrences * site_length s);
        ( float_of_int (i + 1) /. float_of_int n,
          min 1.0 (float_of_int !acc /. float_of_int t.total_work) ))
      sorted
  end

(* The first [n] '|'-separated components of a key, cut in place. *)
let key_prefix n key =
  let rec cut from n =
    match String.index_from_opt key from '|' with
    | Some j -> if n <= 1 then String.sub key 0 j else cut (j + 1) (n - 1)
    | None -> key
  in
  if n <= 0 then "" else cut 0 n

let truncate_site n s =
  if site_length s <= n then s
  else begin
    let take k l = List.filteri (fun i _ -> i < k) l in
    {
      s with
      member_indices = take n s.member_indices;
      uids = take n s.uids;
      key = key_prefix n s.key;
    }
  end

let restrict_length n t =
  { t with sites = List.map (truncate_site n) t.sites }

let exact_length n t =
  {
    t with
    sites =
      t.sites
      |> List.filter (fun s -> site_length s >= n)
      |> List.map (truncate_site n);
  }
