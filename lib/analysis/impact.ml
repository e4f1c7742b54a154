(** Subtree dependence analysis and the lint walk — see impact.mli for
    the contract.

    One abstract evaluator walks the m-graph exactly as
    {!Blueprint.Mgraph.eval} would (same operand order, same flattening
    of [list] operands, same mangling-id draw points). For each node it
    computes the {!Symflow} flow, the constraint preferences, the
    annotated {!info}, the names the subtree ever defined, and the
    {!Lint} findings, emitted into one log in traversal order. A memo
    entry keeps a subtree's findings next to its result, so a memoized
    subtree answers lint as well as impact. *)

module S = Symflow.S
module Mg = Blueprint.Mgraph

type severity = Error | Warning

type finding = {
  code : string;
  title : string;
  severity : severity;
  path : string;
  symbols : string list;
  message : string;
}

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

type lint = {
  l_path : string;
  l_findings : finding list;
  l_summary : summary;
  l_prefs : Mg.constraint_pref list;
  l_ever : S.t;
  l_approximate : bool;
  l_eval_fails : bool;
}

type tree = { t_root : info; t_approximate : bool; t_lint : lint }

(* What walking one node yields. *)
type walked = {
  w_flow : Symflow.t;
  w_prefs : Mg.constraint_pref list;
  w_info : info;
  w_ever : S.t;  (* names defined anywhere in the subtree, at any node *)
}

(* Walked subtrees by (i_path, content address), each with the findings
   its walk emitted. Only subtrees that are modeled and draw no
   mangling id are entered: their result does not depend on the gensym
   base, so one entry serves both replays, and the path fixes the Name
   route (hence the cycle-detection set). *)
type memo = {
  address : Mg.node -> string;
  binding : string -> string;
  entries : (string * string, walked * finding list) Hashtbl.t;
  mutable last : info option; (* root of the last tree analyzed here *)
}

let create_memo ~address ~binding : memo =
  { address; binding; entries = Hashtbl.create 64; last = None }

let tm_nodes_walked = Telemetry.Counter.make "impact.nodes_walked"

(* -- canonical rendering ---------------------------------------------------- *)

(* Exported (name, binding) pairs with multiplicity: duplicate globals
   must stay visible, they are part of the interface (a merge against
   them raises). *)
let export_pairs (m : Symflow.t) : (string * string) list =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun (n, b) ->
          match b with
          | Sof.Symbol.Global -> Some (n, "global")
          | Sof.Symbol.Weak -> Some (n, "weak")
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

let empty_summary (op : string) : summary =
  {
    s_op = op;
    s_exports = [];
    s_undefined = [];
    s_relocs = [];
    s_frozen = [];
    s_hidden = [];
    s_prefs = [];
    s_gensym = 0;
  }

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

(* -- walker state and findings ----------------------------------------------- *)

type state = {
  resolve : string -> (Mg.node, string) result;
  gensym : int ref;
  mutable visiting : string list;  (* Name cycle detection *)
  memo : memo option;
  mutable fresh_nodes : int;  (* nodes walked, memo hits excluded *)
  mutable log : finding list;  (* findings emitted so far, newest first *)
  mutable approximate : bool;
  mutable crash : (exn * finding list) option;
      (* the first exception the walk met, and the log at that moment *)
}

let emit (st : state) ~code ~title ~severity ~path ?(symbols = []) message :
    unit =
  st.log <- { code; title; severity; path; symbols; message } :: st.log

(* An error finding: evaluation of the graph would raise. Only these
   are Error-severity inside the walk, so they decide [eval_fails]. *)
let fails (st : state) ~code ~title ~path ?symbols message : unit =
  emit st ~code ~title ~severity:Error ~path ?symbols message

let is_error (f : finding) = f.severity = Error

(* The findings emitted since the log was [log0], oldest first. *)
let findings_since (st : state) (log0 : finding list) : finding list =
  let rec go acc l =
    if l == log0 then acc
    else match l with f :: rest -> go (f :: acc) rest | [] -> acc
  in
  go [] st.log

let draw (st : state) () : int =
  incr st.gensym;
  !(st.gensym)

(* Child-path addressing: unary children extend the dotted path;
   positional operands index the parent segment. *)
let child (path : string) ?idx (n : Mg.node) : string =
  let parent =
    match idx with None -> path | Some i -> Printf.sprintf "%s[%d]" path i
  in
  parent ^ "." ^ Mg.op_name n

(* Lst operands flatten into the surrounding merge, as in eval. *)
let rec flatten (ns : Mg.node list) : Mg.node list =
  List.concat_map (function Mg.Lst xs -> flatten xs | n -> [ n ]) ns

(* A selector that failed to compile: report E006 once and treat the
   operator as a no-op so analysis can continue. *)
let compile_sel (st : state) ~path (pattern : string) : Jigsaw.Select.t option
    =
  match Jigsaw.Select.compile_res pattern with
  | Ok sel -> Some sel
  | Error msg ->
      fails st ~code:"E006" ~title:"invalid-selector" ~path
        (Printf.sprintf "selector %S does not compile: %s" pattern msg);
      None

(* A rewrite map whose template may fail to apply ([\1] without a
   group): report E006 on first failure (recorded in [bad]), then
   behave as non-matching. *)
let guarded_map (st : state) ~path ~(pattern : string) ~(template : string)
    (bad : bool ref) (map : string -> string option) : string -> string option
    =
 fun n ->
  try map n
  with e ->
    if not !bad then begin
      bad := true;
      fails st ~code:"E006" ~title:"invalid-selector" ~path
        (Printf.sprintf "template %S does not apply to %S (%s)" template
           pattern (Printexc.to_string e))
    end;
    None

(* Sorted (name, binding) pairs grouped by name: (name, globals, weaks). *)
let rec runs = function
  | [] -> []
  | (n, _) :: _ as l ->
      let rec count g w = function
        | (n', b) :: rest when String.equal n' n ->
            if String.equal b "global" then count (g + 1) w rest
            else count g (w + 1) rest
        | rest -> (n, g, w) :: runs rest
      in
      count 0 0 l

(* The E002/W104 checks of a merge of two or more operands, linear in
   the operands' sorted exports. A name is a fresh duplicate (E002)
   when the merge holds two globals of it and no operand alone does:
   an operand's own duplicates were reported below it. A weak
   definition is shadowed (W104) when the merge also holds a global of
   the name and another operand exports it. The merged exports give
   the candidates; only they are tallied per operand. *)
let check_merge (st : state) ~path (children : info list)
    (exports : (string * string) list) (m : Symflow.t) : unit =
  let merged = runs exports in
  let dups = List.filter_map (fun (n, g, _) -> if g >= 2 then Some n else None) merged
  and shadows =
    List.filter_map (fun (n, g, w) -> if g >= 1 && w >= 1 then Some n else None) merged
  in
  if dups <> [] || shadows <> [] then begin
    (* candidate -> (operands exporting it, most globals in one operand) *)
    let tally = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace tally n (0, 0)) (dups @ shadows);
    List.iter
      (fun c ->
        List.iter
          (fun (n, g, _) ->
            match Hashtbl.find_opt tally n with
            | Some (k, most) -> Hashtbl.replace tally n (k + 1, max most g)
            | None -> ())
          (runs c.i_summary.s_exports))
      children;
    let fresh = List.filter (fun n -> snd (Hashtbl.find tally n) < 2) dups in
    if fresh <> [] then begin
      let n1, s1, s2 =
        List.find
          (fun (n, _, _) -> List.mem n fresh)
          (Symflow.duplicate_globals m.Symflow.frags)
      in
      fails st ~code:"E002" ~title:"duplicate-global-in-merge" ~path
        ~symbols:fresh
        (Printf.sprintf "duplicate global definition of %s (in %s and %s)" n1
           s1 s2)
    end;
    match List.filter (fun n -> fst (Hashtbl.find tally n) >= 2) shadows with
    | [] -> ()
    | shadowed ->
        emit st ~code:"W104" ~title:"shadowed-weak-definition"
          ~severity:Warning ~path ~symbols:shadowed
          "weak definition permanently shadowed by a global definition of \
           the same name"
  end

(* Globals created by a defs-side rewrite that now collide (E003): names
   whose global multiplicity grew to >= 2. *)
let check_rename_collision (st : state) ~path ~(op : string)
    (before : Symflow.t) (after : Symflow.t) : unit =
  let dups m =
    List.filter_map
      (fun (n, g, _) -> if g >= 2 then Some (n, g) else None)
      (runs (export_pairs m))
  in
  let was = dups before in
  match
    List.filter_map
      (fun (n, g) ->
        match List.assoc_opt n was with
        | Some g0 when g0 >= g -> None
        | _ -> Some n)
      (dups after)
  with
  | [] -> ()
  | names ->
      fails st ~code:"E003" ~title:"rename-collision" ~path ~symbols:names
        (Printf.sprintf
           "%s mints a global definition name that collides with another" op)

(* A freeze/hide/show whose selection is live mints gensym-numbered
   aliases into the exported namespace: the subtree's interface digest
   moves with the global mangling base, so incremental relinking can
   never reuse it (W105). *)
let warn_unstable (st : state) ~path ~(op : string) (minted_for : string list)
    : unit =
  emit st ~code:"W105" ~title:"unstable-subtree" ~severity:Warning ~path
    ~symbols:(List.sort_uniq compare minted_for)
    (Printf.sprintf
       "%s mints mangling-dependent aliases into the exported namespace; \
        the subtree's interface depends on gensym ordering and can never \
        be reused by incremental relinking"
       op)

let constrain_prefs (seg : Mg.seg) (addr : int) : Mg.constraint_pref list =
  [
    { Mg.seg; priority = 6; pref = Constraints.Placement.At addr };
    { Mg.seg; priority = 3; pref = Constraints.Placement.Near addr };
  ]

(* -- the walker ------------------------------------------------------------- *)

(* Walk one node. Returns the symbol flow, prefs and ever-defined names
   plus the annotated info whose [i_stable] is provisionally
   [i_modeled] — the dual-base zip below replaces it with the
   replay-invariance verdict. A memo hit returns the earlier walk's
   result as is and replays its findings into the log. *)
let rec walk (st : state) (path : string) (n : Mg.node) : walked =
  let addr = match st.memo with Some mm -> mm.address n | None -> "" in
  walk_at st path addr n

and walk_at (st : state) (path : string) (addr : string) (n : Mg.node) :
    walked =
  match
    match st.memo with
    | Some mm -> Hashtbl.find_opt mm.entries (path, addr)
    | None -> None
  with
  | Some (w, findings) ->
      st.log <- List.rev_append findings st.log;
      w
  | None -> walk_fresh st path addr n

and walk_fresh (st : state) (path : string) (addr : string) (n : Mg.node) :
    walked =
  st.fresh_nodes <- st.fresh_nodes + 1;
  let g0 = !(st.gensym) and log0 = st.log in
  let m, prefs, kids, ok = step st path n in
  let consumed = !(st.gensym) - g0 in
  let children = List.map (fun k -> k.w_info) kids in
  let summary =
    match (n, children) with
    | Mg.Merge _, _ :: more ->
        let s = merge_summary ~gensym:consumed children in
        if more <> [] then check_merge st ~path children s.s_exports m;
        s
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
  let modeled = ok && List.for_all (fun c -> c.i_modeled) children in
  let digest =
    node_digest ~op:(op_digest_key n) ~content:(content_key n)
      ~children:(List.map (fun c -> c.i_digest) children)
      summary
  in
  let ever = List.fold_left (fun acc k -> S.union acc k.w_ever) S.empty kids in
  let w =
    {
      w_flow = m;
      w_prefs = prefs;
      w_info =
        {
          i_path = path;
          i_addr = addr;
          i_node = n;
          i_summary = summary;
          i_digest = digest;
          i_modeled = modeled;
          i_stable = modeled;
          i_children = children;
        };
      (* a merge's or a name's definitions are its operands' *)
      w_ever =
        (match n with
        | Mg.Merge _ | Mg.Name _ -> ever
        | _ -> S.union ever (S.of_list (Symflow.defined_any m)));
    }
  in
  (match st.memo with
  | Some mm when modeled && consumed = 0 ->
      Hashtbl.replace mm.entries (path, addr) (w, findings_since st log0)
  | _ -> ());
  w

(* One operator: the flow, prefs and walked children it yields, and
   whether its own semantics are fully modeled. *)
and step (st : state) (path : string) (n : Mg.node) :
    Symflow.t * Mg.constraint_pref list * walked list * bool =
  (* a unary operator over its operand [x] *)
  let unary x f =
    let k = walk st (child path x) x in
    let m, ok = f k.w_flow in
    (m, k.w_prefs, [ k ], ok)
  in
  (* a unary operator whose selector [p] must compile *)
  let selecting p x f =
    unary x (fun mx ->
        match compile_sel st ~path p with
        | None -> (mx, false)
        | Some sel -> f sel mx)
  in
  match n with
  | Mg.Leaf o -> (Symflow.of_object o, [], [], true)
  | Mg.Name p -> (
      if List.mem p st.visiting then begin
        fails st ~code:"E005" ~title:"unknown-server-object" ~path
          ~symbols:[ p ]
          (Printf.sprintf "cyclic meta-object reference through %s" p);
        (Symflow.empty, [], [], false)
      end
      else
        match st.resolve p with
        | Error msg ->
            fails st ~code:"E005" ~title:"unknown-server-object" ~path
              ~symbols:[ p ] msg;
            (Symflow.empty, [], [], false)
        | Ok sub ->
            st.visiting <- p :: st.visiting;
            let addr =
              match st.memo with Some mm -> mm.binding p | None -> ""
            in
            let k = walk_at st path addr sub in
            st.visiting <- List.tl st.visiting;
            (k.w_flow, k.w_prefs, [ k ], true))
  | Mg.Merge operands -> (
      match flatten operands with
      | [] ->
          fails st ~code:"E008" ~title:"malformed-graph" ~path
            "merge: no operands";
          (Symflow.empty, [], [], false)
      | flat ->
          let kids = List.mapi (fun i x -> walk st (child path ~idx:i x) x) flat in
          let m =
            match kids with
            | k :: rest ->
                List.fold_left (fun acc k -> Symflow.merge acc k.w_flow) k.w_flow rest
            | [] -> assert false
          in
          (m, List.concat_map (fun k -> k.w_prefs) kids, kids, true))
  | Mg.Override (a, b) ->
      let ka = walk st (child path ~idx:0 a) a in
      let kb = walk st (child path ~idx:1 b) b in
      let a_exports = S.of_list (Symflow.exports ka.w_flow) in
      if not (List.exists (fun n -> S.mem n a_exports) (Symflow.exports kb.w_flow))
      then
        emit st ~code:"W102" ~title:"override-overrides-nothing"
          ~severity:Warning ~path
          "the right operand exports nothing the left operand defines; \
           override replaces no binding";
      (* no E002/W104 here: the left operand loses every definition of
         a name the right one exports, so no name is defined global or
         weak on both sides *)
      ( Symflow.override ka.w_flow kb.w_flow,
        ka.w_prefs @ kb.w_prefs,
        [ ka; kb ],
        true )
  | Mg.Freeze (p, x) ->
      selecting p x (fun sel mx ->
          let selected = Jigsaw.Select.selected sel (Symflow.exports mx) in
          let refrozen =
            List.filter (fun n -> S.mem n mx.Symflow.frozen) selected
          in
          if refrozen <> [] then
            emit st ~code:"W103" ~title:"freeze-of-already-frozen"
              ~severity:Warning ~path ~symbols:refrozen
              "these bindings are already permanent; refreezing mints a \
               useless extra alias";
          if selected <> [] then warn_unstable st ~path ~op:"freeze" selected;
          (Symflow.freeze ~gensym:(draw st) (Jigsaw.Select.matches sel) mx, true))
  | Mg.Restrict (p, x) ->
      selecting p x (fun sel mx ->
          let pred = Jigsaw.Select.matches sel in
          if Symflow.touched pred mx = [] then
            emit st ~code:"W101" ~title:"dead-restrict" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches no definition; restrict has no effect" p);
          (Symflow.restrict pred mx, true))
  | Mg.Project (p, x) ->
      selecting p x (fun sel mx ->
          let pred = Jigsaw.Select.matches sel in
          if Symflow.touched (fun n -> not (pred n)) mx = [] then
            emit st ~code:"W101" ~title:"dead-project" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches every definition; project has no effect"
                 p);
          (Symflow.project pred mx, true))
  | Mg.Copy_as (p, template, x) ->
      selecting p x (fun sel mx ->
          let bad = ref false in
          let map =
            guarded_map st ~path ~pattern:p ~template bad
              (Jigsaw.Select.rewrite sel template)
          in
          let m' = Symflow.copy_as map mx in
          check_rename_collision st ~path ~op:"copy-as" mx m';
          (m', not !bad))
  | Mg.Hide (p, x) ->
      selecting p x (fun sel mx ->
          let pred = Jigsaw.Select.matches sel in
          (match List.filter pred (Symflow.exports mx) with
          | [] ->
              emit st ~code:"W101" ~title:"dead-hide" ~severity:Warning ~path
                (Printf.sprintf
                   "selector %S matches no export; hide has no effect" p)
          | hidden -> warn_unstable st ~path ~op:"hide" hidden);
          (Symflow.hide ~gensym:(draw st) pred mx, true))
  | Mg.Show (p, x) ->
      selecting p x (fun sel mx ->
          let pred = Jigsaw.Select.matches sel in
          let victims =
            List.filter (fun n -> not (pred n)) (Symflow.exports mx)
          in
          if victims = [] then
            emit st ~code:"W101" ~title:"dead-show" ~severity:Warning ~path
              (Printf.sprintf
                 "selector %S matches every export; show has no effect" p)
          else warn_unstable st ~path ~op:"show" victims;
          (Symflow.show ~gensym:(draw st) pred mx, true))
  | Mg.Rename (scope, p, template, x) ->
      selecting p x (fun sel mx ->
          let bad = ref false in
          let map =
            guarded_map st ~path ~pattern:p ~template bad
              (Jigsaw.Select.rewrite sel template)
          in
          let m' = Symflow.rename scope map mx in
          if scope <> Jigsaw.Module_ops.Refs_only then
            check_rename_collision st ~path ~op:"rename" mx m';
          (m', not !bad))
  | Mg.Initializers x -> unary x (fun mx -> (Symflow.initializers mx, true))
  | Mg.Source (lang, text) -> (
      match lang with
      | "c" | "C" -> (
          match Minic.Driver.compile ~name:"(source)" text with
          | o -> (Symflow.of_object o, [], [], true)
          | exception Minic.Driver.Compile_error msg ->
              fails st ~code:"E007" ~title:"source-compile-error" ~path
                (Printf.sprintf "source: %s" msg);
              (Symflow.empty, [], [], false)
          | exception e ->
              (* lint stops here (E999); the impact walk goes on with
                 the node unmodeled *)
              if st.crash = None then st.crash <- Some (e, st.log);
              (Symflow.empty, [], [], false))
      | other ->
          fails st ~code:"E007" ~title:"source-compile-error" ~path
            (Printf.sprintf "source: unsupported language %S" other);
          (Symflow.empty, [], [], false))
  | Mg.Specialize (style, args, x) -> (
      match style with
      | "lib-constrained" ->
          let flat =
            List.concat_map (function Mg.Vlist vs -> vs | v -> [ v ]) args
          in
          let rec pairs = function
            | Mg.Vstr seg :: Mg.Vnum addr :: rest -> (
                match Mg.seg_of_string seg with
                | s -> Option.map (fun tail -> constrain_prefs s addr @ tail) (pairs rest)
                | exception Mg.Eval_error msg ->
                    fails st ~code:"E008" ~title:"malformed-graph" ~path msg;
                    None)
            | [] -> Some []
            | _ ->
                fails st ~code:"E008" ~title:"malformed-graph" ~path
                  "lib-constrained: expected alternating segment/address \
                   arguments";
                None
          in
          let k = walk st (child path x) x in
          (match pairs flat with
          | Some ps -> (k.w_flow, ps @ k.w_prefs, [ k ], true)
          | None -> (k.w_flow, k.w_prefs, [ k ], false))
      | "lib-static" | "identity" | "lib-dynamic-impl" -> unary x (fun mx -> (mx, true))
      | "lib-dynamic" | "monitor" ->
          (* stub generation / wrapper interposition rewrite the module
             in ways only evaluation can see: keep the operand's flow,
             mark the report approximate, and never prove reuse *)
          st.approximate <- true;
          unary x (fun mx -> (mx, false))
      | other ->
          (* reported before the operand's findings *)
          fails st ~code:"E008" ~title:"malformed-graph" ~path
            (Printf.sprintf "unknown specialization %S" other);
          unary x (fun mx -> (mx, false)))
  | Mg.Constrain (seg, addr, x) ->
      let k = walk st (child path x) x in
      (k.w_flow, constrain_prefs seg addr @ k.w_prefs, [ k ], true)
  | Mg.Lst _ ->
      fails st ~code:"E008" ~title:"malformed-graph" ~path
        "list is only meaningful as an operand of another operation";
      (Symflow.empty, [], [], false)

(* -- entry points ------------------------------------------------------------ *)

let fallback_info (root : Mg.node) : info =
  {
    i_path = Mg.op_name root;
    i_addr = "";
    i_node = root;
    i_summary = empty_summary (Mg.op_name root);
    i_digest = "(analysis-error)";
    i_modeled = false;
    i_stable = false;
    i_children = [];
  }

(* One walk of [root] from [gensym_base]: the walked root or what the
   walk raised, and the state it left. *)
let run ?memo ~resolve ~(gensym_base : int) (root : Mg.node) :
    state * (walked, exn) result =
  let st =
    {
      resolve;
      gensym = ref gensym_base;
      visiting = [];
      memo;
      fresh_nodes = 0;
      log = [];
      approximate = false;
      crash = None;
    }
  in
  (st, match walk st (Mg.op_name root) root with w -> Ok w | exception e -> Error e)

(* What lint reads of a walk. The analyzer must never take down
   registration or the CLI: if the walk met an exception, the findings
   up to it are kept and an E999 closes them. *)
let lint_of ((st, r) : state * (walked, exn) result) (root : Mg.node) : lint =
  let path = Mg.op_name root in
  let crashed e log =
    let eval_fails = List.exists is_error log in
    st.log <- log;
    emit st ~code:"E999" ~title:"analyzer-internal-error" ~severity:Error ~path
      (Printexc.to_string e);
    {
      l_path = path;
      l_findings = List.rev st.log;
      l_summary = empty_summary path;
      l_prefs = [];
      l_ever = S.empty;
      l_approximate = true;
      l_eval_fails = eval_fails;
    }
  in
  match (st.crash, r) with
  | Some (e, log), _ -> crashed e log
  | None, Error e -> crashed e st.log
  | None, Ok w ->
      {
        l_path = path;
        l_findings = List.rev st.log;
        l_summary = w.w_info.i_summary;
        l_prefs = w.w_prefs;
        l_ever = w.w_ever;
        l_approximate = st.approximate;
        l_eval_fails = List.exists is_error st.log;
      }

let lint ~resolve ~(gensym_base : int) (root : Mg.node) : lint =
  lint_of (run ~resolve ~gensym_base root) root

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
    let ((st, r) as run0) = run ?memo ~resolve ~gensym_base:base root in
    Telemetry.Counter.incr ~by:st.fresh_nodes tm_nodes_walked;
    match r with
    | Ok w -> (w.w_info, run0)
    | Error _ ->
        failed := true;
        (fallback_info root, run0)
  in
  let r0, run0 = replay 0 in
  let r1, _ = replay 1_000_003 in
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
            | Some (w, _) when w.w_info == i ->
                Hashtbl.remove mm.entries (i.i_path, i.i_addr)
            | _ -> ())
          ~added:ignore mm.last (Some t_root);
        mm.last <- Some t_root
      end)
    memo;
  (* [i_modeled] holds for a node iff it holds for its whole subtree *)
  { t_root; t_approximate = not t_root.i_modeled; t_lint = lint_of run0 root }

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
    List.find_map
      (fun reason -> reason ())
      [
        (fun () ->
          if so.s_exports = sn.s_exports then None
          else first_list_diff ~what:"export" (exports so) (exports sn));
        (fun () ->
          first_list_diff ~what:"undefined reference" so.s_undefined
            sn.s_undefined);
        (fun () ->
          first_list_diff ~what:"relocation target" so.s_relocs sn.s_relocs);
        (fun () ->
          first_list_diff ~what:"frozen binding" so.s_frozen sn.s_frozen);
        (fun () -> first_list_diff ~what:"hidden name" so.s_hidden sn.s_hidden);
        (fun () ->
          first_list_diff ~what:"constraint preference" so.s_prefs sn.s_prefs);
        (fun () ->
          if so.s_gensym = sn.s_gensym then None
          else
            Some
              (Printf.sprintf "mangling-id consumption changed: %d -> %d"
                 so.s_gensym sn.s_gensym));
      ]

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
    let reuse = ni.i_stable && Hashtbl.mem old_stable ni.i_digest in
    nodes :=
      {
        v_path = ni.i_path;
        v_op = ni.i_summary.s_op;
        v_digest = ni.i_digest;
        v_verdict =
          (if reuse then Reused { digest = ni.i_digest }
           else Respin { reason = respin_reason old_opt ni });
      }
      :: !nodes;
    (* pruned: nothing below a reused subtree needs a verdict *)
    if reuse then incr reused
    else begin
      incr respun;
      spine := ni.i_path :: !spine;
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
  let rec go i =
    if String.equal i.i_digest dg then Some i
    else List.find_map go i.i_children
  in
  go t.t_root

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
