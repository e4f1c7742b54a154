(** Blueprint lint: the findings of an {!Impact} walk over the
    symbol-flow lattice, plus the root checks below. lint.mli documents
    the walk's guarantees and the diagnostic codes. *)

module S = Symflow.S
module Mg = Blueprint.Mgraph

type severity = Impact.severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type finding = Impact.finding = {
  code : string;
  title : string;
  severity : severity;
  path : string;
  symbols : string list;
  message : string;
}

type report = {
  findings : finding list;  (** traversal order *)
  exports : string list;  (** predicted {!Jigsaw.Module_ops.exports} *)
  undefined : string list;  (** predicted {!Jigsaw.Module_ops.undefined} *)
  frozen : string list;
  hidden : string list;
  prefs : Mg.constraint_pref list;  (** accumulated, evaluation order *)
  approximate : bool;
      (** an unmodeled specializer ("lib-dynamic", "monitor") rewrote
          the module; predicted sets describe its operand only *)
  eval_fails : bool;  (** some finding implies evaluation raises *)
}

let errors (r : report) : int =
  List.length (List.filter (fun f -> f.severity = Error) r.findings)

let warnings (r : report) : int =
  List.length (List.filter (fun f -> f.severity = Warning) r.findings)

let finding_to_string (f : finding) : string =
  Printf.sprintf "%s %s at %s: %s%s" f.code f.title f.path f.message
    (match f.symbols with
    | [] -> ""
    | syms -> " [" ^ String.concat ", " syms ^ "]")

(* -- root checks ------------------------------------------------------------ *)

let seg_name = function Mg.Seg_text -> "T" | Mg.Seg_data -> "D"

let root_error ~code ~title ~path ?(symbols = []) message : finding =
  { code; title; severity = Error; path; symbols; message }

let check_constraints ~path (prefs : Mg.constraint_pref list) : finding list =
  (* distinct At addresses for the same segment at equal priority, in
     the order they are first preferred *)
  let ats =
    List.filter_map
      (fun (c : Mg.constraint_pref) ->
        match c.pref with
        | Constraints.Placement.At addr -> Some ((seg_name c.seg, c.priority), addr)
        | _ -> None)
      prefs
  in
  List.filter_map
    (fun ((seg, prio) as k) ->
      let addrs =
        List.fold_left
          (fun acc (k', a) -> if k' = k && not (List.mem a acc) then a :: acc else acc)
          [] ats
        |> List.rev
      in
      if List.length addrs < 2 then None
      else
        Some
          (root_error ~code:"E004" ~title:"conflicting-address-constraints" ~path
             (Printf.sprintf
                "segment %s prefers %d distinct base addresses at priority %d (%s)"
                seg (List.length addrs) prio
                (String.concat ", " (List.map (Printf.sprintf "0x%x") addrs)))))
    (List.sort_uniq compare (List.map fst ats))

let check_unresolved ~path ~(ever_defined : S.t) (undefined : string list) :
    finding list =
  match List.filter (fun n -> S.mem n ever_defined) undefined with
  | [] -> []
  | lost ->
      [
        root_error ~code:"E001" ~title:"unresolved-at-root" ~path ~symbols:lost
          "referenced but undefined at the root, though a definition existed \
           in the graph before operators removed or renamed it";
      ]

(* -- entry points ------------------------------------------------------------ *)

let of_walk (l : Impact.lint) : report =
  let s = l.Impact.l_summary in
  let path = l.Impact.l_path in
  (* the summary's exports are sorted pairs; names repeat adjacently *)
  let rec names = function
    | (a, _) :: ((b, _) :: _ as rest) when String.equal a b -> names rest
    | (a, _) :: rest -> a :: names rest
    | [] -> []
  in
  {
    findings =
      l.Impact.l_findings
      @ check_unresolved ~path ~ever_defined:l.Impact.l_ever s.Impact.s_undefined
      @ check_constraints ~path l.Impact.l_prefs;
    exports = names s.Impact.s_exports;
    undefined = s.Impact.s_undefined;
    frozen = s.Impact.s_frozen;
    hidden = s.Impact.s_hidden;
    prefs = l.Impact.l_prefs;
    approximate = l.Impact.l_approximate;
    eval_fails = l.Impact.l_eval_fails;
  }

let analyze ~(resolve : string -> (Mg.node, string) result)
    ?(gensym_base = 0) (root : Mg.node) : report =
  of_walk (Impact.lint ~resolve ~gensym_base root)

let analyze_meta ~(resolve : string -> (Mg.node, string) result)
    ?(spec : (string * Mg.value list) option = None) ?gensym_base
    (meta : Blueprint.Meta.t) : report =
  analyze ~resolve ?gensym_base (Blueprint.Meta.effective_graph meta ~spec)

(* -- differential self-check ------------------------------------------------- *)

type verify_outcome =
  | Verified of { exports : int; undefined : int }
  | Skipped of string
  | Mismatch of {
      field : string;  (** "exports" or "undefined" *)
      predicted : string list;
      actual : string list;
    }
  | Eval_raised of string
      (** evaluation raised although the analyzer predicted success *)

let verify_against ~(eval : Mg.node -> Mg.result)
    ~(resolve : string -> (Mg.node, string) result) (root : Mg.node) :
    report * verify_outcome =
  let report =
    analyze ~resolve ~gensym_base:(Jigsaw.Module_ops.gensym_current ()) root
  in
  if report.eval_fails then (report, Skipped "analysis predicts evaluation failure")
  else if report.approximate then
    (report, Skipped "unmodeled specialization; predicted sets are approximate")
  else
    match eval root with
    | exception e -> (report, Eval_raised (Printexc.to_string e))
    | r ->
        let mismatch field predicted actual =
          (report, Mismatch { field; predicted; actual })
        in
        let exports = Jigsaw.Module_ops.exports r.Mg.m in
        let undefined = Jigsaw.Module_ops.undefined r.Mg.m in
        if report.exports <> exports then
          mismatch "exports" report.exports exports
        else if report.undefined <> undefined then
          mismatch "undefined" report.undefined undefined
        else
          ( report,
            Verified
              { exports = List.length exports; undefined = List.length undefined }
          )
