(** Subtree dependence analysis — see impact.mli for the contract.

    The walker below mirrors {!Lint.go_node} case for case: same
    operand order, same flattening of [list] operands, same
    mangling-id draw points (one per freeze, one per hide, one per
    show victim — whatever {!Symflow} actually draws is measured by
    sampling the counter around the subtree). Keeping the two
    traversals in lock-step is what lets the lint differential
    self-check vouch for the summaries computed here. *)

module S = Symflow.S
module Mg = Blueprint.Mgraph

type summary = {
  s_op : string;
  s_exports : (string * string) list;
  s_undefined : string list;
  s_relocs : string list;
  s_frozen : string list;
  s_hidden : string list;
  s_prefs : string list;
  s_gensym : int;
}

type info = {
  i_path : string;
  i_addr : string;
  i_node : Mg.node;
  i_summary : summary;
  i_digest : string;
  i_modeled : bool;
  i_stable : bool;
  i_children : info list;
}

type tree = { t_root : info; t_approximate : bool }

(* Walked subtrees by (i_path, content address). Only subtrees that are
   modeled and draw no mangling id are entered: their result does not
   depend on the gensym base, so one entry serves both replays, and the
   path fixes the Name route (hence the cycle-detection set). *)
type memo = {
  address : Mg.node -> string;
  binding : string -> string;
  entries :
    (string * string, Symflow.t * Mg.constraint_pref list * info) Hashtbl.t;
  mutable last : info option; (* root of the last tree analyzed here *)
}

let create_memo ~address ~binding : memo =
  { address; binding; entries = Hashtbl.create 64; last = None }

let tm_nodes_walked = Telemetry.Counter.make "impact.nodes_walked"

(* -- canonical rendering ---------------------------------------------------- *)

let binding_str = function
  | Sof.Symbol.Global -> "global"
  | Sof.Symbol.Weak -> "weak"
  | Sof.Symbol.Local -> "local"

(* Exported (name, binding) pairs with multiplicity: duplicate globals
   must stay visible, they are part of the interface (a merge against
   them raises). *)
let export_pairs (m : Symflow.t) : (string * string) list =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (n, b) ->
          match b with
          | Sof.Symbol.Global | Sof.Symbol.Weak -> Some (n, binding_str b)
          | Sof.Symbol.Local -> None)
        f.Symflow.f_defs)
    m.Symflow.frags
  |> List.sort compare

let reloc_names (m : Symflow.t) : string list =
  S.elements
    (List.fold_left
       (fun acc f -> S.union acc f.Symflow.f_relocs)
       S.empty m.Symflow.frags)

let seg_str = function Mg.Seg_text -> "T" | Mg.Seg_data -> "D"

let pref_str (c : Mg.constraint_pref) : string =
  Format.asprintf "%s/%d:%a" (seg_str c.Mg.seg) c.Mg.priority
    Constraints.Placement.pp_pref c.Mg.pref

let scope_str = function
  | Jigsaw.Module_ops.Defs_only -> "defs"
  | Jigsaw.Module_ops.Refs_only -> "refs"
  | Jigsaw.Module_ops.Both -> "both"

let rec value_key = function
  | Mg.Vstr s -> "s:" ^ s
  | Mg.Vnum n -> "n:" ^ string_of_int n
  | Mg.Vlist vs -> "l:[" ^ String.concat "," (List.map value_key vs) ^ "]"
  | Mg.Vnode n -> "g:" ^ Mg.digest n

(* Digest-side operator key. Deliberately path-free for [Name]: the
   digest addresses *content*, so rebinding identical content under a
   new server path still reuses. The display key (s_op, from
   {!Mg.op_name}) keeps the path for humans. *)
let op_digest_key (n : Mg.node) : string =
  match n with
  | Mg.Leaf _ -> "leaf"
  | Mg.Name _ -> "name"
  | Mg.Merge _ -> "merge"
  | Mg.Override _ -> "override"
  | Mg.Freeze (p, _) -> "freeze:" ^ p
  | Mg.Restrict (p, _) -> "restrict:" ^ p
  | Mg.Project (p, _) -> "project:" ^ p
  | Mg.Copy_as (p, t, _) -> "copy-as:" ^ p ^ ":" ^ t
  | Mg.Hide (p, _) -> "hide:" ^ p
  | Mg.Show (p, _) -> "show:" ^ p
  | Mg.Rename (sc, p, t, _) -> "rename:" ^ scope_str sc ^ ":" ^ p ^ ":" ^ t
  | Mg.Initializers _ -> "initializers"
  | Mg.Source (lang, _) -> "source:" ^ lang
  | Mg.Specialize (style, args, _) ->
      "specialize:" ^ style ^ ":"
      ^ String.concat "," (List.map value_key args)
  | Mg.Constrain (seg, addr, _) ->
      Printf.sprintf "constrain:%s:0x%x" (seg_str seg) addr
  | Mg.Lst _ -> "list"

(* Node-local content that is not captured by children digests. *)
let content_key (n : Mg.node) : string =
  match n with
  | Mg.Leaf o -> Sof.Codec.digest o
  | Mg.Source (lang, text) ->
      Digest.to_hex (Digest.string (lang ^ "\x00" ^ text))
  | _ -> ""

let summary_key (s : summary) : string =
  let b = Buffer.create 256 in
  let strs tag xs =
    Buffer.add_string b tag;
    List.iter
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b ';')
      xs;
    Buffer.add_char b '|'
  in
  strs "e:" (List.map (fun (n, bd) -> n ^ "=" ^ bd) s.s_exports);
  strs "u:" s.s_undefined;
  strs "r:" s.s_relocs;
  strs "f:" s.s_frozen;
  strs "h:" s.s_hidden;
  strs "p:" s.s_prefs;
  Buffer.add_string b ("g:" ^ string_of_int s.s_gensym);
  Buffer.contents b

let node_digest ~(op : string) ~(content : string)
    ~(children : string list) (s : summary) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x01"
          ("impact.v1" :: op :: content
          :: String.concat "," children
          :: [ summary_key s ])))

(* A merge concatenates its operands' fragments, so its summary is the
   union of theirs, computed from the operands' sorted lists in linear
   time rather than from the whole flow: exports keep multiplicity, and
   a name is undefined iff some operand leaves it undefined and no
   operand exports it. *)
let merge_summary ~(gensym : int) (children : info list) : summary =
  let merged f =
    List.fold_left (fun acc c -> List.merge compare acc (f c.i_summary)) [] children
  in
  let rec uniq = function
    | x :: (y :: _ as rest) -> if x = y then uniq rest else x :: uniq rest
    | l -> l
  in
  let exports = merged (fun s -> s.s_exports) in
  (* sorted difference: undefined names minus exported names *)
  let rec unexported us es =
    match (us, es) with
    | [], _ -> []
    | us, [] -> us
    | u :: us', (e, _) :: es' ->
        let c = compare u e in
        if c < 0 then u :: unexported us' es
        else if c = 0 then unexported us' es
        else unexported us es'
  in
  {
    s_op = "merge";
    s_exports = exports;
    s_undefined = unexported (uniq (merged (fun s -> s.s_undefined))) exports;
    s_relocs = uniq (merged (fun s -> s.s_relocs));
    s_frozen = uniq (merged (fun s -> s.s_frozen));
    s_hidden = uniq (merged (fun s -> s.s_hidden));
    s_prefs = List.concat_map (fun c -> c.i_summary.s_prefs) children;
    s_gensym = gensym;
  }

(* -- the walker ------------------------------------------------------------- *)

type state = {
  resolve : string -> (Mg.node, string) result;
  gensym : int ref;
  mutable visiting : string list;
  memo : memo option;
}

let draw (st : state) () : int =
  incr st.gensym;
  !(st.gensym)

let child (path : string) ?idx (n : Mg.node) : string =
  let parent =
    match idx with None -> path | Some i -> Printf.sprintf "%s[%d]" path i
  in
  parent ^ "." ^ Mg.op_name n

let rec flatten (ns : Mg.node list) : Mg.node list =
  List.concat_map (function Mg.Lst xs -> flatten xs | n -> [ n ]) ns

(* A selector or rewrite template the operator can apply; [None] means
   the operator is a no-op for the flow (mirrors lint's E006 path). *)
let compile_sel (pattern : string) : Jigsaw.Select.t option =
  match Jigsaw.Select.compile_res pattern with
  | Ok sel -> Some sel
  | Error _ -> None

let guarded_map (bad : bool ref) (map : string -> string option) :
    string -> string option =
 fun n ->
  try map n
  with _ ->
    bad := true;
    None

(* Kept in sync with {!Lint}'s specializer model. *)
let known_specializers =
  [
    "lib-constrained"; "lib-static"; "identity"; "lib-dynamic";
    "lib-dynamic-impl"; "monitor";
  ]

let unmodeled_specializers = [ "lib-dynamic"; "monitor" ]

(* Walk one node. Returns the symbol flow and prefs (the operator
   semantics, identical to lint's) plus the annotated info whose
   [i_stable] is provisionally [i_modeled] — the dual-base zip below
   replaces it with the replay-invariance verdict. A memo hit returns
   the earlier walk's result as is. *)
let rec walk (st : state) (path : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * info =
  let addr = match st.memo with Some mm -> mm.address n | None -> "" in
  walk_at st path addr n

and walk_at (st : state) (path : string) (addr : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * info =
  match
    match st.memo with
    | Some mm -> Hashtbl.find_opt mm.entries (path, addr)
    | None -> None
  with
  | Some hit -> hit
  | None -> walk_fresh st path addr n

and walk_fresh (st : state) (path : string) (addr : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * info =
  Telemetry.Counter.incr tm_nodes_walked;
  let g0 = !(st.gensym) in
  let m, prefs, children, ok = step st path n in
  let consumed = !(st.gensym) - g0 in
  let summary =
    match (n, children) with
    | Mg.Merge _, _ :: _ -> merge_summary ~gensym:consumed children
    | _ ->
        {
          s_op = Mg.op_name n;
          s_exports = export_pairs m;
          s_undefined = Symflow.undefined m;
          s_relocs = reloc_names m;
          s_frozen = S.elements m.Symflow.frozen;
          s_hidden = S.elements m.Symflow.hidden;
          s_prefs = List.map pref_str prefs;
          s_gensym = consumed;
        }
  in
  let modeled =
    ok && List.for_all (fun c -> c.i_modeled) children
  in
  let digest =
    node_digest ~op:(op_digest_key n) ~content:(content_key n)
      ~children:(List.map (fun c -> c.i_digest) children)
      summary
  in
  let r =
    ( m,
      prefs,
      {
        i_path = path;
        i_addr = addr;
        i_node = n;
        i_summary = summary;
        i_digest = digest;
        i_modeled = modeled;
        i_stable = modeled;
        i_children = children;
      } )
  in
  (match st.memo with
  | Some mm when modeled && consumed = 0 ->
      Hashtbl.replace mm.entries (path, addr) r
  | _ -> ());
  r

and step (st : state) (path : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * info list * bool =
  match n with
  | Mg.Leaf o -> (Symflow.of_object o, [], [], true)
  | Mg.Name p ->
      if List.mem p st.visiting then (Symflow.empty, [], [], false)
      else begin
        match st.resolve p with
        | Error _ -> (Symflow.empty, [], [], false)
        | Ok sub ->
            st.visiting <- p :: st.visiting;
            let addr =
              match st.memo with Some mm -> mm.binding p | None -> ""
            in
            let m, prefs, i = walk_at st path addr sub in
            st.visiting <- List.tl st.visiting;
            (m, prefs, [ i ], true)
      end
  | Mg.Merge operands -> (
      match flatten operands with
      | [] -> (Symflow.empty, [], [], false)
      | flat ->
          let rs =
            List.mapi (fun i x -> walk st (child path ~idx:i x) x) flat
          in
          let parts = List.map (fun (m, _, _) -> m) rs in
          let m =
            match parts with
            | p :: rest -> List.fold_left Symflow.merge p rest
            | [] -> assert false
          in
          ( m,
            List.concat_map (fun (_, p, _) -> p) rs,
            List.map (fun (_, _, i) -> i) rs,
            true ))
  | Mg.Override (a, b) ->
      let ma, pa, ia = walk st (child path ~idx:0 a) a in
      let mb, pb, ib = walk st (child path ~idx:1 b) b in
      let b_exports = Symflow.exports mb in
      let a' = Symflow.restrict (fun n -> List.mem n b_exports) ma in
      (Symflow.merge a' mb, pa @ pb, [ ia; ib ], true)
  | Mg.Freeze (p, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel ->
          ( Symflow.freeze ~gensym:(draw st) (Jigsaw.Select.matches sel) mx,
            px,
            [ ix ],
            true ))
  | Mg.Restrict (p, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel -> (Symflow.restrict (Jigsaw.Select.matches sel) mx, px, [ ix ], true))
  | Mg.Project (p, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel -> (Symflow.project (Jigsaw.Select.matches sel) mx, px, [ ix ], true))
  | Mg.Copy_as (p, template, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel ->
          let bad = ref false in
          let map = guarded_map bad (Jigsaw.Select.rewrite sel template) in
          let m' = Symflow.copy_as map mx in
          (m', px, [ ix ], not !bad))
  | Mg.Hide (p, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel ->
          ( Symflow.hide ~gensym:(draw st) (Jigsaw.Select.matches sel) mx,
            px,
            [ ix ],
            true ))
  | Mg.Show (p, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel ->
          ( Symflow.show ~gensym:(draw st) (Jigsaw.Select.matches sel) mx,
            px,
            [ ix ],
            true ))
  | Mg.Rename (scope, p, template, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match compile_sel p with
      | None -> (mx, px, [ ix ], false)
      | Some sel ->
          let bad = ref false in
          let map = guarded_map bad (Jigsaw.Select.rewrite sel template) in
          let m' = Symflow.rename scope map mx in
          (m', px, [ ix ], not !bad))
  | Mg.Initializers x ->
      let mx, px, ix = walk st (child path x) x in
      (Symflow.initializers mx, px, [ ix ], true)
  | Mg.Source (lang, text) -> (
      match lang with
      | "c" | "C" -> (
          match Minic.Driver.compile ~name:"(source)" text with
          | o -> (Symflow.of_object o, [], [], true)
          | exception _ -> (Symflow.empty, [], [], false))
      | _ -> (Symflow.empty, [], [], false))
  | Mg.Specialize (style, args, x) -> (
      let mx, px, ix = walk st (child path x) x in
      match style with
      | "lib-constrained" -> (
          let flat =
            List.concat_map
              (function Mg.Vlist vs -> vs | v -> [ v ])
              args
          in
          let rec pairs = function
            | Mg.Vstr seg :: Mg.Vnum addr :: rest -> (
                match Mg.seg_of_string seg with
                | s ->
                    Option.map
                      (fun tail ->
                        {
                          Mg.seg = s;
                          priority = 6;
                          pref = Constraints.Placement.At addr;
                        }
                        :: {
                             Mg.seg = s;
                             priority = 3;
                             pref = Constraints.Placement.Near addr;
                           }
                        :: tail)
                      (pairs rest)
                | exception Mg.Eval_error _ -> None)
            | [] -> Some []
            | _ -> None
          in
          match pairs flat with
          | Some ps -> (mx, ps @ px, [ ix ], true)
          | None -> (mx, px, [ ix ], false))
      | "lib-static" | "identity" | "lib-dynamic-impl" -> (mx, px, [ ix ], true)
      | _ when List.mem style unmodeled_specializers ->
          (* stub generation / wrapper interposition rewrite the module
             in ways only evaluation can see: the summary describes the
             operand only, so reuse cannot be proven *)
          (mx, px, [ ix ], false)
      | _ when List.mem style known_specializers -> (mx, px, [ ix ], true)
      | _ -> (mx, px, [ ix ], false))
  | Mg.Constrain (seg, addr, x) ->
      let mx, px, ix = walk st (child path x) x in
      ( mx,
        { Mg.seg; priority = 6; pref = Constraints.Placement.At addr }
        :: { Mg.seg; priority = 3; pref = Constraints.Placement.Near addr }
        :: px,
        [ ix ],
        true )
  | Mg.Lst _ -> (Symflow.empty, [], [], false)

(* -- entry points ------------------------------------------------------------ *)

let fallback_info (root : Mg.node) : info =
  {
    i_path = Mg.op_name root;
    i_addr = "";
    i_node = root;
    i_summary =
      {
        s_op = Mg.op_name root;
        s_exports = [];
        s_undefined = [];
        s_relocs = [];
        s_frozen = [];
        s_hidden = [];
        s_prefs = [];
        s_gensym = 0;
      };
    i_digest = "(analysis-error)";
    i_modeled = false;
    i_stable = false;
    i_children = [];
  }

let run_once ?memo ~resolve ~(gensym_base : int) (root : Mg.node) :
    info option =
  let st = { resolve; gensym = ref gensym_base; visiting = []; memo } in
  match walk st (Mg.op_name root) root with
  | _, _, i -> Some i
  | exception _ -> None

let rec force_unstable (i : info) : info =
  {
    i with
    i_stable = false;
    i_children = List.map force_unstable i.i_children;
  }

(* Zip the two replays: a node is stable iff it is fully modeled and
   its digest did not move when the whole analysis started from a
   different mangling base. Both replays answer a memoized subtree with
   the same info, which is already final (modeled, no id drawn, so
   stable), and zipping stops there. *)
let rec zip (a : info) (b : info) : info =
  if a == b then a
  else
    {
      a with
      i_stable = a.i_modeled && String.equal a.i_digest b.i_digest;
      i_children = List.map2 zip a.i_children b.i_children;
    }

let iter_infos (f : info -> unit) (t : tree) : unit =
  let rec go i =
    f i;
    List.iter go i.i_children
  in
  go t.t_root

(* Visit what differs between two trees, skipping subtrees they share
   physically; children pair up by position. *)
let changes ~(removed : info -> unit) ~(added : info -> unit)
    (old_root : info option) (new_root : info option) : unit =
  let rec all f i =
    f i;
    List.iter (all f) i.i_children
  in
  let rec go o n =
    if o != n then begin
      removed o;
      added n;
      pair o.i_children n.i_children
    end
  and pair os ns =
    match (os, ns) with
    | o :: os', n :: ns' ->
        go o n;
        pair os' ns'
    | os, [] -> List.iter (all removed) os
    | [], ns -> List.iter (all added) ns
  in
  match (old_root, new_root) with
  | Some o, Some n -> go o n
  | Some o, None -> all removed o
  | None, Some n -> all added n
  | None, None -> ()

let analyze ?(memo : memo option) ~(resolve : string -> (Mg.node, string) result)
    (root : Mg.node) : tree =
  let failed = ref false in
  let replay base =
    match run_once ?memo ~resolve ~gensym_base:base root with
    | Some i -> i
    | None ->
        failed := true;
        fallback_info root
  in
  let r0 = replay 0 in
  let r1 = replay 1_000_003 in
  let t_root =
    try zip r0 r1
    with Invalid_argument _ ->
      failed := true;
      force_unstable r0
  in
  Option.iter
    (fun mm ->
      if !failed then begin
        (* what a failed replay memoized is not part of the result *)
        Hashtbl.reset mm.entries;
        mm.last <- None
      end
      else begin
        (* bound the memo to the tree just analyzed: drop what the
           previous tree held and this one does not *)
        changes
          ~removed:(fun i ->
            match Hashtbl.find_opt mm.entries (i.i_path, i.i_addr) with
            | Some (_, _, i') when i' == i ->
                Hashtbl.remove mm.entries (i.i_path, i.i_addr)
            | _ -> ())
          ~added:ignore mm.last (Some t_root);
        mm.last <- Some t_root
      end)
    memo;
  (* [i_modeled] holds for a node iff it holds for its whole subtree *)
  { t_root; t_approximate = not t_root.i_modeled }

(* -- diff -------------------------------------------------------------------- *)

type verdict = Reused of { digest : string } | Respin of { reason : string }

type node_verdict = {
  v_path : string;
  v_op : string;
  v_digest : string;
  v_verdict : verdict;
}

type diff = {
  d_old_digest : string;
  d_new_digest : string;
  d_nodes : node_verdict list;
  d_reused : int;
  d_respun : int;
  d_spine : string list;
}

(* First element of the (sorted or positional) rendering that differs,
   phrased relative to the new blueprint. *)
let first_list_diff ~(what : string) (old_l : string list)
    (new_l : string list) : string option =
  let rec go o n =
    match (o, n) with
    | [], [] -> None
    | x :: _, [] -> Some (Printf.sprintf "%s %s removed" what x)
    | [], y :: _ -> Some (Printf.sprintf "%s %s added" what y)
    | x :: o', y :: n' ->
        if String.equal x y then go o' n'
        else if compare x y < 0 then
          Some (Printf.sprintf "%s %s removed" what x)
        else Some (Printf.sprintf "%s %s added" what y)
  in
  go old_l new_l

let summary_reason (so : summary) (sn : summary) : string option =
  let exports s =
    List.map (fun (n, b) -> Printf.sprintf "%s (%s)" n b) s.s_exports
  in
  if not (String.equal so.s_op sn.s_op) then
    Some (Printf.sprintf "operator changed: %s -> %s" so.s_op sn.s_op)
  else
    match
      if so.s_exports = sn.s_exports then None
      else first_list_diff ~what:"export" (exports so) (exports sn)
    with
    | Some r -> Some r
    | None -> (
        match
          first_list_diff ~what:"undefined reference" so.s_undefined
            sn.s_undefined
        with
        | Some r -> Some r
        | None -> (
            match
              first_list_diff ~what:"relocation target" so.s_relocs sn.s_relocs
            with
            | Some r -> Some r
            | None -> (
                match
                  first_list_diff ~what:"frozen binding" so.s_frozen sn.s_frozen
                with
                | Some r -> Some r
                | None -> (
                    match
                      first_list_diff ~what:"hidden name" so.s_hidden
                        sn.s_hidden
                    with
                    | Some r -> Some r
                    | None -> (
                        match
                          first_list_diff ~what:"constraint preference"
                            so.s_prefs sn.s_prefs
                        with
                        | Some r -> Some r
                        | None ->
                            if so.s_gensym <> sn.s_gensym then
                              Some
                                (Printf.sprintf
                                   "mangling-id consumption changed: %d -> %d"
                                   so.s_gensym sn.s_gensym)
                            else None)))))

let respin_reason (old_opt : info option) (ni : info) : string =
  if not ni.i_modeled then
    "subtree not fully modeled (unresolved name, bad selector, source \
     error, or opaque specializer); reuse cannot be proven"
  else if not ni.i_stable then
    "interface summary depends on gensym ordering (a live freeze/hide/show \
     leaks minted aliases into the exports)"
  else
    match old_opt with
    | None -> "new subtree: no counterpart at this position in the old blueprint"
    | Some oi -> (
        match summary_reason oi.i_summary ni.i_summary with
        | Some r -> r
        | None -> "operand content changed (interface identical)")

let diff ~(old_tree : tree) ~(new_tree : tree) : diff =
  let old_stable : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  iter_infos
    (fun i -> if i.i_stable then Hashtbl.replace old_stable i.i_digest ())
    old_tree;
  let nodes = ref [] in
  let reused = ref 0 in
  let respun = ref 0 in
  let spine = ref [] in
  let rec go (old_opt : info option) (ni : info) : unit =
    if ni.i_stable && Hashtbl.mem old_stable ni.i_digest then begin
      incr reused;
      nodes :=
        {
          v_path = ni.i_path;
          v_op = ni.i_summary.s_op;
          v_digest = ni.i_digest;
          v_verdict = Reused { digest = ni.i_digest };
        }
        :: !nodes
      (* pruned: nothing below a reused subtree needs a verdict *)
    end
    else begin
      incr respun;
      spine := ni.i_path :: !spine;
      nodes :=
        {
          v_path = ni.i_path;
          v_op = ni.i_summary.s_op;
          v_digest = ni.i_digest;
          v_verdict = Respin { reason = respin_reason old_opt ni };
        }
        :: !nodes;
      let old_children =
        match old_opt with Some o -> o.i_children | None -> []
      in
      List.iteri
        (fun k c -> go (List.nth_opt old_children k) c)
        ni.i_children
    end
  in
  go (Some old_tree.t_root) new_tree.t_root;
  {
    d_old_digest = old_tree.t_root.i_digest;
    d_new_digest = new_tree.t_root.i_digest;
    d_nodes = List.rev !nodes;
    d_reused = !reused;
    d_respun = !respun;
    d_spine = List.rev !spine;
  }

(* -- verification ------------------------------------------------------------ *)

type verify_outcome = {
  vo_checked : int;
  vo_failures : (string * string) list;
}

let find_by_digest (t : tree) (dg : string) : info option =
  let found = ref None in
  iter_infos
    (fun i ->
      if Option.is_none !found && String.equal i.i_digest dg then
        found := Some i)
    t;
  !found

let verify ~(eval : Mg.node -> Jigsaw.Module_ops.t) ~(old_tree : tree)
    ~(new_tree : tree) (d : diff) : verify_outcome =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let checked = ref 0 in
  let failures = ref [] in
  let materialize (i : info) : (string, string) result =
    match eval i.i_node with
    | m -> Ok (Sof.Codec.digest (Jigsaw.Module_ops.to_object m))
    | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun v ->
      match v.v_verdict with
      | Respin _ -> ()
      | Reused { digest } ->
          if not (Hashtbl.mem seen digest) then begin
            Hashtbl.replace seen digest ();
            incr checked;
            match (find_by_digest old_tree digest, find_by_digest new_tree digest) with
            | Some oi, Some ni -> (
                match (materialize oi, materialize ni) with
                | Ok a, Ok b when String.equal a b -> ()
                | Ok a, Ok b ->
                    failures :=
                      ( v.v_path,
                        Printf.sprintf
                          "materialization differs: old %s, new %s" a b )
                      :: !failures
                | Error _, Error _ ->
                    (* neither side materializes; the obligation is vacuous *)
                    ()
                | Ok _, Error e ->
                    failures :=
                      (v.v_path, "new evaluation raised: " ^ e) :: !failures
                | Error e, Ok _ ->
                    failures :=
                      (v.v_path, "old evaluation raised: " ^ e) :: !failures)
            | _ ->
                failures :=
                  (v.v_path, "reused digest not found in both trees")
                  :: !failures
          end)
    d.d_nodes;
  { vo_checked = !checked; vo_failures = List.rev !failures }
