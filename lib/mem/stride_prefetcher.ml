type entry = {
  mutable tag : int;
  mutable last_addr : int;
  mutable stride : int;
  mutable confidence : int;
}

type t = {
  entries : entry array;
  degree : int;
  mutable issued : int;
}

let confidence_max = 3
let confidence_threshold = 2

let create ?(entries = 1024) ?(degree = 1) () =
  {
    entries =
      Array.init entries (fun _ ->
          { tag = -1; last_addr = 0; stride = 0; confidence = 0 });
    degree;
    issued = 0;
  }

let observe t ~pc ~addr =
  let e = t.entries.(pc mod Array.length t.entries) in
  if e.tag <> pc then begin
    e.tag <- pc;
    e.last_addr <- addr;
    e.stride <- 0;
    e.confidence <- 0;
    []
  end
  else begin
    let stride = addr - e.last_addr in
    if stride <> 0 && stride = e.stride then
      e.confidence <- min confidence_max (e.confidence + 1)
    else e.confidence <- 0;
    e.stride <- stride;
    e.last_addr <- addr;
    if e.confidence >= confidence_threshold then begin
      let addrs =
        List.init t.degree (fun i -> addr + (stride * (i + 1)))
      in
      t.issued <- t.issued + List.length addrs;
      addrs
    end
    else []
  end

let issued t = t.issued

let copy t =
  {
    t with
    entries =
      Array.map
        (fun e ->
          {
            tag = e.tag;
            last_addr = e.last_addr;
            stride = e.stride;
            confidence = e.confidence;
          })
        t.entries;
  }
