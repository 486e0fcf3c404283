(* Lengths are whole 64-bit words, so unions and differences run a word
   at a time. *)
type t = Bytes.t

let empty = Bytes.empty
let words_for bits = ((bits + 63) lsr 6) lsl 3
let create n = Bytes.make (words_for n) '\000'
let copy = Bytes.copy

let mem s i =
  let b = i lsr 3 in
  b < Bytes.length s
  && Char.code (Bytes.unsafe_get s b) land (1 lsl (i land 7)) <> 0

let with_bits s bits =
  let n = words_for bits in
  if Bytes.length s >= n then s
  else begin
    let grown = Bytes.make (max n (2 * Bytes.length s)) '\000' in
    Bytes.blit s 0 grown 0 (Bytes.length s);
    grown
  end

let add_into s i =
  let s = with_bits s (i + 1) in
  let b = i lsr 3 in
  Bytes.unsafe_set s b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get s b) lor (1 lsl (i land 7))));
  s

let remove_into s i =
  let b = i lsr 3 in
  if b < Bytes.length s then
    Bytes.unsafe_set s b
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get s b) land lnot (1 lsl (i land 7))));
  s

let union_into a b =
  let n = Bytes.length b in
  let a = with_bits a (8 * n) in
  let i = ref 0 in
  while !i < n do
    Bytes.set_int64_ne a !i
      (Int64.logor (Bytes.get_int64_ne a !i) (Bytes.get_int64_ne b !i));
    i := !i + 8
  done;
  a

let diff_into a b =
  let n = min (Bytes.length a) (Bytes.length b) in
  let i = ref 0 in
  while !i < n do
    Bytes.set_int64_ne a !i
      (Int64.logand (Bytes.get_int64_ne a !i)
         (Int64.lognot (Bytes.get_int64_ne b !i)));
    i := !i + 8
  done;
  a

let union a b =
  if Bytes.length a >= Bytes.length b then union_into (copy a) b
  else union_into (copy b) a

let used_length s =
  let rec go n =
    if n > 0 && Bytes.unsafe_get s (n - 1) = '\000' then go (n - 1) else n
  in
  go (Bytes.length s)

let equal a b =
  let n = used_length a in
  n = used_length b
  &&
  let rec go i = i = n || (Bytes.get a i = Bytes.get b i && go (i + 1)) in
  go 0

let key s = Bytes.sub_string s 0 (used_length s)

let at_least_two s =
  let rec go i seen =
    if i = Bytes.length s then false
    else
      let v = Char.code (Bytes.unsafe_get s i) in
      if v = 0 then go (i + 1) seen
      else if seen || v land (v - 1) <> 0 then true
      else go (i + 1) true
  in
  go 0 false

let iter f s =
  for b = 0 to Bytes.length s - 1 do
    let v = Char.code (Bytes.unsafe_get s b) in
    if v <> 0 then
      for k = 0 to 7 do
        if v land (1 lsl k) <> 0 then f ((b lsl 3) + k)
      done
  done
