(** Blueprint lint: the diagnostics pass over the {!Symflow} lattice.

    [analyze] walks an m-graph exactly as {!Blueprint.Mgraph.eval}
    would (same operand order, same freeze/hide mangling-id sequence)
    but on abstract name sets — no view is materialized and no
    simulated cost is charged — and reports findings with stable codes.

    - [E001] unresolved-at-root — a reference that some fragment once
      defined is undefined in the final module (an operator removed or
      renamed the definition away). Plain external imports (never
      defined anywhere in the graph) are reported in the summary, not
      as findings.
    - [E002] duplicate-global-in-merge — two global definitions of the
      same name meet in a [merge]; evaluation raises.
    - [E003] rename-collision — a [rename]/[copy-as] mints a global
      definition name that now collides with another.
    - [E004] conflicting-address-constraints — distinct base addresses
      preferred for the same segment at equal priority.
    - [E005] unknown-server-object — a [Name] that does not resolve, or
      resolves cyclically.
    - [E006] invalid-selector — a selector pattern or rewrite template
      [Str] cannot compile or apply.
    - [E007] source-compile-error — a [source] node's text does not
      compile (or names an unsupported language).
    - [E008] malformed-graph — structural misuse ([list] outside an
      operand position, bad specializer arguments, unknown
      specialization style, empty [merge]).
    - [W101] dead-selector — a [restrict]/[hide]/[show]/[project] whose
      selector gives the operator nothing to do.
    - [W102] override-overrides-nothing — the right operand exports
      nothing the left operand defines.
    - [W103] freeze-of-already-frozen — freezing symbols whose bindings
      are already permanent (mints a useless extra alias).
    - [W104] shadowed-weak-definition — a weak definition permanently
      shadowed by a global one in a [merge].
    - [W105] unstable-subtree — a live [freeze]/[hide]/[show] mints
      [n$frzI]/[n$hidI] aliases into the exported namespace, so the
      node's interface summary depends on the global mangling-id
      sequence: {!Impact} can never prove such a subtree reusable.

    The walk is {!Impact}'s: one walker computes the symbol flow, the
    impact summaries and every finding but the root checks ([E001],
    [E004]), so a registration whose impact walk is memoized lints
    only the nodes the edit changed. *)

type severity = Impact.severity = Error | Warning

val severity_to_string : severity -> string

type finding = Impact.finding = {
  code : string;  (** stable code, e.g. ["E002"] *)
  title : string;  (** stable slug, e.g. ["duplicate-global-in-merge"] *)
  severity : severity;
  path : string;  (** m-graph path, e.g. ["constrain.rename.override[1]"] *)
  symbols : string list;  (** offending symbols, sorted *)
  message : string;
}

type report = {
  findings : finding list;  (** traversal order *)
  exports : string list;  (** predicted {!Jigsaw.Module_ops.exports} *)
  undefined : string list;  (** predicted {!Jigsaw.Module_ops.undefined} *)
  frozen : string list;
  hidden : string list;
  prefs : Blueprint.Mgraph.constraint_pref list;
  approximate : bool;
      (** an unmodeled specializer ("lib-dynamic", "monitor") rewrites
          the module; predicted sets describe its operand only *)
  eval_fails : bool;  (** some finding implies evaluation raises *)
}

val errors : report -> int
val warnings : report -> int

(** ["E002 duplicate-global-in-merge at merge: ... [sym, sym]"] *)
val finding_to_string : finding -> string

(** The report of one {!Impact} walk: its findings followed by the root
    checks ([E001], then [E004]). *)
val of_walk : Impact.lint -> report

(** [analyze ~resolve root] runs the abstract interpretation. [resolve]
    maps server-object paths to sub-graphs ([Error msg] yields an E005
    finding). [gensym_base] seeds the replayed mangling-id counter —
    pass {!Jigsaw.Module_ops.gensym_current} when predicted names must
    match an evaluation that follows. Never raises. *)
val analyze :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  ?gensym_base:int ->
  Blueprint.Mgraph.node ->
  report

(** [analyze_meta ~resolve meta] analyzes the meta-object's effective
    graph (default specialization and constraint-list included). *)
val analyze_meta :
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  ?spec:(string * Blueprint.Mgraph.value list) option ->
  ?gensym_base:int ->
  Blueprint.Meta.t ->
  report

(** Differential self-check: analysis first (seeded from the live
    gensym counter), then real evaluation, then set comparison. *)
type verify_outcome =
  | Verified of { exports : int; undefined : int }
  | Skipped of string
      (** analysis predicts failure, or the graph uses an unmodeled
          specialization *)
  | Mismatch of {
      field : string;  (** "exports" or "undefined" *)
      predicted : string list;
      actual : string list;
    }
  | Eval_raised of string
      (** evaluation raised although the analyzer predicted success *)

val verify_against :
  eval:(Blueprint.Mgraph.node -> Blueprint.Mgraph.result) ->
  resolve:(string -> (Blueprint.Mgraph.node, string) result) ->
  Blueprint.Mgraph.node ->
  report * verify_outcome
