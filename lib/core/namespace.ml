(** The OMOS namespace.

    "OMOS maintains and exports a hierarchical namespace, whose names
    represent meta-objects, executable code fragments, or directories
    of other objects."

    Every binding also has a content address (see namespace.mli),
    memoized per path and dropped only when a binding it depends on
    changes: a reverse-dependency index maps every path a meta-object
    names (bound or not) to the meta-objects naming it. *)

module Mg = Blueprint.Mgraph

exception Namespace_error of string

type entry =
  | Fragment of Sof.Object_file.t (* a relocatable, e.g. /obj/ls.o *)
  | Meta of Blueprint.Meta.t (* a meta-object *)
  | Directory of (string, entry) Hashtbl.t

(* Graph nodes keyed by physical identity. *)
module Phys = Hashtbl.Make (struct
  type t = Mg.node

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  root : (string, entry) Hashtbl.t;
  addrs : (string, string) Hashtbl.t; (* canonical path -> binding address *)
  nodes : string Phys.t;
      (* node of a bound meta's own graph -> its address; filled while
         that meta's binding address is computed *)
  refs : (string, string list) Hashtbl.t; (* meta path -> paths it names *)
  rdeps : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* named path (bound or not) -> metas naming it directly *)
  mutable computing : string list; (* binding addresses in progress *)
  mutable cyclic : bool; (* the computation in progress met a Name cycle *)
}

let create () : t =
  {
    root = Hashtbl.create 16;
    addrs = Hashtbl.create 64;
    nodes = Phys.create 256;
    refs = Hashtbl.create 16;
    rdeps = Hashtbl.create 64;
    computing = [];
    cyclic = false;
  }

let split_path (path : string) : string list =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

(* One spelling per path: "/a//b/" and "a/b" both key as "/a/b". A path
   already spelled that way is returned as is. *)
let canonical (path : string) : string =
  let n = String.length path in
  let rec plain i =
    i >= n || ((path.[i] <> '/' || (path.[i - 1] <> '/' && i < n - 1)) && plain (i + 1))
  in
  if n > 1 && path.[0] = '/' && plain 1 then path
  else "/" ^ String.concat "/" (split_path path)

let rec lookup_in dir = function
  | [] -> Some (Directory dir)
  | p :: rest -> (
      match Hashtbl.find_opt dir p with
      | Some (Directory d) -> lookup_in d rest
      | Some e -> if rest = [] then Some e else None
      | None -> None)

let lookup (t : t) (path : string) : entry option = lookup_in t.root (split_path path)

let exists (t : t) (path : string) : bool = lookup t path <> None

(* -- content addresses ----------------------------------------------------- *)

(* Length-prefixed framing keeps the digest input injective. *)
let digest_parts (parts : string list) : string =
  let b =
    Bytes.create (List.fold_left (fun n s -> n + 4 + String.length s) 0 parts)
  in
  ignore
    (List.fold_left
       (fun off s ->
         let len = String.length s in
         Bytes.set_int32_le b off (Int32.of_int len);
         Bytes.blit_string s 0 b (off + 4) len;
         off + 4 + len)
       0 parts);
  Digest.to_hex (Digest.bytes b)

let seg_key = function Mg.Seg_text -> "T" | Mg.Seg_data -> "D"

let scope_key = function
  | Jigsaw.Module_ops.Defs_only -> "defs"
  | Jigsaw.Module_ops.Refs_only -> "refs"
  | Jigsaw.Module_ops.Both -> "both"

(* Address of a node. [keep] records it (and every uncached node below
   it) in [t.nodes]: only a meta's own graph is kept, while its binding
   address is computed, so the table holds the nodes of bound metas and
   nothing a request allocates. Nothing computed across a Name cycle is
   kept: its placeholder depends on where the computation started. A
   [Name] node's address is its path and its binding's address, spelled
   out rather than digested (the binding's address is memoized, and the
   "name:" prefix keeps it apart from the binding's own). *)
let rec node_addr (t : t) ~(keep : bool) (n : Mg.node) : string =
  match n with
  | Mg.Name p -> "name:" ^ p ^ "@" ^ address t p
  | _ -> (
      match Phys.find_opt t.nodes n with
      | Some a -> a
      | None ->
          let a = digest_node t ~keep n in
          if keep && not t.cyclic then Phys.replace t.nodes n a;
          a)

and digest_node (t : t) ~keep (n : Mg.node) : string =
  let sub = node_addr t ~keep in
  match n with
  | Mg.Leaf o -> Sof.Codec.digest o
  | Mg.Name _ -> sub n
  | Mg.Merge xs -> digest_parts ("merge" :: List.map sub xs)
  | Mg.Lst xs -> digest_parts ("list" :: List.map sub xs)
  | Mg.Override (a, b) -> digest_parts [ "override"; sub a; sub b ]
  | Mg.Freeze (p, x) -> digest_parts [ "freeze"; p; sub x ]
  | Mg.Restrict (p, x) -> digest_parts [ "restrict"; p; sub x ]
  | Mg.Project (p, x) -> digest_parts [ "project"; p; sub x ]
  | Mg.Copy_as (p, tmpl, x) -> digest_parts [ "copy-as"; p; tmpl; sub x ]
  | Mg.Hide (p, x) -> digest_parts [ "hide"; p; sub x ]
  | Mg.Show (p, x) -> digest_parts [ "show"; p; sub x ]
  | Mg.Rename (sc, p, tmpl, x) ->
      digest_parts [ "rename"; scope_key sc; p; tmpl; sub x ]
  | Mg.Initializers x -> digest_parts [ "initializers"; sub x ]
  | Mg.Source (lang, text) -> digest_parts [ "source"; lang; text ]
  | Mg.Specialize (style, args, x) ->
      digest_parts
        ("specialize" :: style :: sub x :: List.map (value_key t ~keep) args)
  | Mg.Constrain (seg, base, x) ->
      digest_parts [ "constrain"; seg_key seg; string_of_int base; sub x ]

and value_key (t : t) ~keep (v : Mg.value) : string =
  match v with
  | Mg.Vstr s -> "s" ^ s
  | Mg.Vnum n -> "n" ^ string_of_int n
  | Mg.Vlist vs -> "l" ^ digest_parts (List.map (value_key t ~keep) vs)
  | Mg.Vnode n -> "g" ^ node_addr t ~keep n

(** Content address of the binding at [path]. *)
and address (t : t) (path : string) : string =
  let key = canonical path in
  match Hashtbl.find_opt t.addrs key with
  | Some a -> a
  | None when List.mem key t.computing ->
      t.cyclic <- true;
      digest_parts [ "cycle"; key ]
  | None ->
      if t.computing = [] then t.cyclic <- false;
      t.computing <- key :: t.computing;
      let a =
        match
          match lookup t key with
          | Some (Fragment o) -> Sof.Codec.digest o
          | Some (Meta m) ->
              node_addr t ~keep:true (Blueprint.Meta.effective_graph m ~spec:None)
          | Some (Directory _) | None -> digest_parts [ "none"; key ]
        with
        | a -> a
        | exception e ->
            t.computing <- List.tl t.computing;
            raise e
      in
      t.computing <- List.tl t.computing;
      if not t.cyclic then Hashtbl.replace t.addrs key a;
      a

let node_address (t : t) (n : Mg.node) : string = node_addr t ~keep:false n

(* -- reverse dependencies ---------------------------------------------------- *)

let rec iter_graph (f : Mg.node -> unit) (n : Mg.node) : unit =
  f n;
  match n with
  | Mg.Leaf _ | Mg.Name _ | Mg.Source _ -> ()
  | Mg.Merge xs | Mg.Lst xs -> List.iter (iter_graph f) xs
  | Mg.Override (a, b) ->
      iter_graph f a;
      iter_graph f b
  | Mg.Freeze (_, x) | Mg.Restrict (_, x) | Mg.Project (_, x)
  | Mg.Copy_as (_, _, x) | Mg.Hide (_, x) | Mg.Show (_, x)
  | Mg.Rename (_, _, _, x) | Mg.Initializers x | Mg.Constrain (_, _, x) ->
      iter_graph f x
  | Mg.Specialize (_, args, x) ->
      let rec value = function
        | Mg.Vnode n -> iter_graph f n
        | Mg.Vlist vs -> List.iter value vs
        | Mg.Vstr _ | Mg.Vnum _ -> ()
      in
      List.iter value args;
      iter_graph f x

let meta_graph (m : Blueprint.Meta.t) = Blueprint.Meta.effective_graph m ~spec:None

(* Unlike [Mgraph.names], this also reaches the graphs a specialization
   takes as arguments: addresses cover them, so the index must too. *)
let named_paths (m : Blueprint.Meta.t) : string list =
  let out = ref [] in
  iter_graph
    (function Mg.Name p -> out := canonical p :: !out | _ -> ())
    (meta_graph m);
  List.sort_uniq compare !out

(** [path] (canonical) followed by every meta-object that reaches it
    through [Name] nodes, transitively, in sorted order. *)
let dependents (t : t) (path : string) : string list =
  let key = canonical path in
  let seen = Hashtbl.create 8 in
  let rec go k =
    match Hashtbl.find_opt t.rdeps k with
    | None -> ()
    | Some ms ->
        Hashtbl.iter
          (fun m () ->
            if not (Hashtbl.mem seen m) then begin
              Hashtbl.replace seen m ();
              go m
            end)
          ms
  in
  go key;
  Hashtbl.remove seen key;
  key :: List.sort compare (Hashtbl.fold (fun m () acc -> m :: acc) seen [])

(* Drop the memoized addresses of [key] and of everything that reaches
   it, before the binding at [key] changes. A directory binding stands
   for every path below it. *)
let invalidate (t : t) (key : string) : unit =
  let forget k =
    Hashtbl.remove t.addrs k;
    match lookup t k with
    | Some (Meta m) ->
        iter_graph
          (function Mg.Name _ -> () | n -> Phys.remove t.nodes n)
          (meta_graph m)
    | _ -> ()
  in
  let below =
    match lookup t key with
    | Some (Directory _) ->
        let prefix = key ^ "/" in
        let under k =
          String.length k > String.length prefix
          && String.sub k 0 (String.length prefix) = prefix
        in
        let ks = Hashtbl.create 8 in
        Hashtbl.iter (fun k _ -> if under k then Hashtbl.replace ks k ()) t.addrs;
        Hashtbl.iter (fun k _ -> if under k then Hashtbl.replace ks k ()) t.rdeps;
        Hashtbl.fold (fun k () acc -> k :: acc) ks []
    | _ -> []
  in
  List.iter (fun k -> List.iter forget (dependents t k)) (key :: below)

(* Record that the binding at [key] names exactly [names] (sorted),
   touching the index only where the old and new lists differ. *)
let set_refs (t : t) (key : string) (names : string list) : unit =
  let drop r =
    match Hashtbl.find_opt t.rdeps r with
    | Some ms ->
        Hashtbl.remove ms key;
        if Hashtbl.length ms = 0 then Hashtbl.remove t.rdeps r
    | None -> ()
  in
  let add r =
    match Hashtbl.find_opt t.rdeps r with
    | Some ms -> Hashtbl.replace ms key ()
    | None ->
        let ms = Hashtbl.create 4 in
        Hashtbl.replace ms key ();
        Hashtbl.replace t.rdeps r ms
  in
  let rec go olds news =
    match (olds, news) with
    | [], ns -> List.iter add ns
    | os, [] -> List.iter drop os
    | o :: os, n :: ns ->
        let c = compare o n in
        if c = 0 then go os ns
        else if c < 0 then (
          drop o;
          go os news)
        else (
          add n;
          go olds ns)
  in
  go (Option.value ~default:[] (Hashtbl.find_opt t.refs key)) names;
  if names = [] then Hashtbl.remove t.refs key
  else Hashtbl.replace t.refs key names

(* -- binding ------------------------------------------------------------------ *)

(* Bind an entry at a path, creating directories. *)
let bind (t : t) (path : string) (e : entry) : unit =
  match List.rev (split_path path) with
  | [] -> raise (Namespace_error "cannot bind /")
  | name :: rev_dir ->
      let key = canonical path in
      let rec go dir = function
        | [] ->
            invalidate t key;
            Hashtbl.replace dir name e
        | p :: rest -> (
            match Hashtbl.find_opt dir p with
            | Some (Directory d) -> go d rest
            | Some _ ->
                raise (Namespace_error (path ^ ": component is not a directory"))
            | None ->
                let d = Hashtbl.create 8 in
                Hashtbl.replace dir p (Directory d);
                go d rest)
      in
      go t.root (List.rev rev_dir);
      (match e with Directory _ -> invalidate t key | _ -> ());
      set_refs t key (match e with Meta m -> named_paths m | _ -> [])

let bind_fragment (t : t) (path : string) (o : Sof.Object_file.t) : unit =
  bind t path (Fragment o)

let bind_meta (t : t) (path : string) (m : Blueprint.Meta.t) : unit = bind t path (Meta m)

let unbind (t : t) (path : string) : unit =
  match List.rev (split_path path) with
  | [] -> raise (Namespace_error "cannot unbind /")
  | name :: rev_dir -> (
      match lookup_in t.root (List.rev rev_dir) with
      | Some (Directory d) ->
          let key = canonical path in
          invalidate t key;
          Hashtbl.remove d name;
          set_refs t key []
      | _ -> raise (Namespace_error (path ^ ": no such directory")))

(** Entries of a directory, sorted. *)
let list (t : t) (path : string) : (string * [ `Fragment | `Meta | `Directory ]) list =
  match lookup t path with
  | Some (Directory d) ->
      Hashtbl.fold
        (fun name e acc ->
          let kind =
            match e with
            | Fragment _ -> `Fragment
            | Meta _ -> `Meta
            | Directory _ -> `Directory
          in
          (name, kind) :: acc)
        d []
      |> List.sort compare
  | Some _ -> raise (Namespace_error (path ^ ": not a directory"))
  | None -> raise (Namespace_error (path ^ ": no such directory"))

(** All meta-object paths (for administrative listings). *)
let all_metas (t : t) : string list =
  let out = ref [] in
  let rec walk prefix dir =
    Hashtbl.iter
      (fun name e ->
        let path = prefix ^ "/" ^ name in
        match e with
        | Meta _ -> out := path :: !out
        | Directory d -> walk path d
        | Fragment _ -> ())
      dir
  in
  walk "" t.root;
  List.sort compare !out
