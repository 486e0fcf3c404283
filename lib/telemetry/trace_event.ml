type meta = Process of string | Thread of int * string

type event = {
  name : string;
  cat : string;
  tid : int;
  ts : float;
  dur : float;
  args : (string * string) list;
}

(* Fields in the order the format's documentation lists them. *)
let meta_json m =
  let kind, tid, name =
    match m with
    | Process name -> ("process_name", 1, name)
    | Thread (tid, name) -> ("thread_name", tid, name)
  in
  Json.obj
    [
      ("ph", Json.str "M");
      ("name", Json.str kind);
      ("pid", Json.int 1);
      ("tid", Json.int tid);
      ("args", Json.obj [ ("name", Json.str name) ]);
    ]

let event_json e =
  Json.obj
    [
      ("name", Json.str e.name);
      ("cat", Json.str e.cat);
      ("ph", Json.str "X");
      ("pid", Json.int 1);
      ("tid", Json.int e.tid);
      ("ts", Json.float e.ts);
      ("dur", Json.float e.dur);
      ("args", Json.obj e.args);
    ]

let to_json meta events =
  Json.obj
    [
      ( "traceEvents",
        Json.arr (List.map meta_json meta @ List.map event_json events) );
      ("displayTimeUnit", Json.str "ms");
    ]
