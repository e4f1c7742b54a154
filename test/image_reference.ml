(* Reference derivations of an image's digest, encoded size and symbol
   lookup, written the direct way: the memoized functions of
   [Linker.Image] must agree with them on every image. *)

let digest (img : Linker.Image.t) : string =
  let buf = Buffer.create 64 in
  Buffer.add_string buf img.Linker.Image.name;
  List.iter
    (fun (s : Linker.Image.segment) ->
      Buffer.add_string buf
        (Printf.sprintf "|%s@%x:%b:" s.Linker.Image.seg_name s.Linker.Image.vaddr
           s.Linker.Image.writable);
      Buffer.add_bytes buf s.Linker.Image.bytes)
    img.Linker.Image.segments;
  Buffer.add_string buf
    (Printf.sprintf "|bss@%x+%x|e%x" img.Linker.Image.bss_vaddr img.Linker.Image.bss_size
       img.Linker.Image.entry);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let find_symbol (img : Linker.Image.t) (name : string) : int option =
  List.assoc_opt name img.Linker.Image.symtab

(* Every disagreement between the memoized derivations of [img] and the
   references, one line each; [] when they all agree. *)
let mismatches (img : Linker.Image.t) : string list =
  let name = img.Linker.Image.name in
  let d = digest img in
  let bad = ref [] in
  let expect what ok = if not ok then bad := (name ^ ": " ^ what) :: !bad in
  expect "digest" (Linker.Image.digest img = d);
  expect "digest on a second call" (Linker.Image.digest img = d);
  let bytes = Linker.Image.encode img in
  expect "encoded_size" (Linker.Image.encoded_size img = Bytes.length bytes);
  expect "digest after decode (encode img)"
    (Linker.Image.digest (Linker.Image.decode bytes) = d);
  List.iter
    (fun n ->
      expect ("find_symbol " ^ n) (Linker.Image.find_symbol img n = find_symbol img n))
    (List.map fst img.Linker.Image.symtab @ [ ""; "<absent>"; name ^ "$absent" ]);
  let renamed = Linker.Image.with_name img (name ^ "'") in
  expect "digest after with_name"
    (Linker.Image.digest renamed = digest renamed && Linker.Image.digest renamed <> d);
  List.rev !bad
