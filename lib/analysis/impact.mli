(** Subtree dependence analysis: content-addressed interface summaries
    over m-graphs, and the reuse/respin verdicts that make incremental
    relinking sound. The same walk also carries {!Lint}'s diagnostics.

    Built on {!Symflow}: per operator node the analyzer computes a
    canonical {e interface summary} — exports with binding and
    multiplicity, undefined references, reloc shape (referenced names),
    frozen/hidden sets, accumulated constraint preferences, and the
    number of mangling ids the subtree consumes — plus a structural
    digest that chains leaf content digests, operator parameters, child
    digests and the summary. Two subtrees with equal digests are
    provably link-equivalent: same construction content, same interface,
    same placement preferences.

    Stability is established by {e dual-base replay}: the whole analysis
    runs twice from two distinct gensym bases, and a node whose digest
    differs between the runs has an interface that leaks minted
    [n$frzI]/[n$hidI] names (a live freeze/hide/show anywhere in the
    subtree). Unstable subtrees can never be reused — their
    materialization depends on where in the global mangling sequence
    evaluation happens to start. Stable subtrees contain no minted name
    at all, so their materialization is byte-identical across replays
    (dead freezes still {e consume} ids, which is why the summary
    carries the consumed-id count: reuse must skip them).

    {!diff} compares an old/new analysis: each node of the new tree is
    either [Reused] (digest present in the old tree {e and} stable —
    the proof obligations) or [Respin] with the first differing
    interface fact as a human-readable reason. Verdicts are pre-order
    and pruned: below a reused node nothing needs a verdict.

    The walker materializes no view and charges nothing to the
    simulated clock. *)

module Mg := Blueprint.Mgraph

type severity = Error | Warning

(** One lint diagnostic; {!Lint} documents the codes. *)
type finding = {
  code : string;  (** stable code, e.g. ["E002"] *)
  title : string;  (** stable slug, e.g. ["duplicate-global-in-merge"] *)
  severity : severity;
  path : string;  (** m-graph path, e.g. ["constrain.rename.override[1]"] *)
  symbols : string list;  (** offending symbols, sorted *)
  message : string;
}

(** Canonical interface summary of one subtree. All lists are in
    canonical (sorted) order except [s_exports], which keeps
    multiplicity. *)
type summary = {
  s_op : string;  (** operator key, parameters included *)
  s_exports : (string * string) list;
      (** exported (name, binding), sorted, multiplicity preserved *)
  s_undefined : string list;
  s_relocs : string list;  (** names referenced by relocations *)
  s_frozen : string list;
  s_hidden : string list;
  s_prefs : string list;  (** rendered constraint preferences *)
  s_gensym : int;  (** mangling ids the subtree consumes *)
}

(** Annotated analysis of one node. *)
type info = {
  i_path : string;  (** m-graph path, {!Lint}'s addressing vocabulary *)
  i_addr : string;
      (** content address of the node under the {!memo}'s addressing
          (the server's cache and plan key); [""] when analyzed
          without a memo *)
  i_node : Mg.node;
  i_summary : summary;
  i_digest : string;
      (** content digest: leaf content + params + child digests +
          summary, chained bottom-up *)
  i_modeled : bool;
      (** the whole subtree is fully modeled: every name resolves
          acyclically, every selector/template compiles, every source
          compiles, every specializer has a modeled semantics *)
  i_stable : bool;
      (** digest invariant under gensym-base replay, and every node in
          the subtree fully modeled (no unresolved name, bad selector,
          or unmodeled specializer) *)
  i_children : info list;
}

(** What {!Lint} reads of one walk from the root: everything but the
    root checks. If the walk met an exception, [l_findings] holds the
    findings up to it followed by an [E999] analyzer-internal-error,
    the summary and prefs are empty, and [l_approximate] is set. *)
type lint = {
  l_path : string;  (** the root's path *)
  l_findings : finding list;  (** emission order *)
  l_summary : summary;  (** the root's interface summary *)
  l_prefs : Mg.constraint_pref list;  (** accumulated, evaluation order *)
  l_ever : Symflow.S.t;  (** names some node of the graph defined *)
  l_approximate : bool;  (** an unmodeled specializer was walked *)
  l_eval_fails : bool;  (** some finding implies evaluation raises *)
}

type tree = {
  t_root : info;
  t_approximate : bool;
      (** some node could not be modeled precisely; those nodes (and
          their ancestors) are marked unstable *)
  t_lint : lint;  (** the lint of the replay from gensym base 0 *)
}

(** A subtree memo, so that re-analyzing an edited graph walks only
    what the edit changed. Entries are keyed by (i_path, content
    address) and hold the walker's result for a subtree that is fully
    modeled and draws no mangling id, with the findings its walk
    emitted: such a result does not depend on the gensym base, so one
    entry serves both replays and the lint as well, and the path fixes
    the [Name] route, hence the cycle-detection set, and keeps the
    findings' paths absolute. The memo is bounded to the tree last
    analyzed through it. [address] gives a node's content address,
    [binding] the address of the graph a [Name] path resolves to; the
    caller keeps both consistent with [resolve]. *)
type memo

val create_memo :
  address:(Mg.node -> string) -> binding:(string -> string) -> memo

(** Analyze a graph. Never raises; unmodelable nodes are marked
    unstable rather than failing. With [memo], the result is equal to
    the memo-less analysis in every field but [i_addr], and subtrees
    the memo answers are shared physically with the previous tree.
    Every node walked (memo hits excluded) counts in the
    [impact.nodes_walked] counter. *)
val analyze :
  ?memo:memo ->
  resolve:(string -> (Mg.node, string) result) ->
  Mg.node ->
  tree

(** One walk from [gensym_base], no memo, no dual replay, nothing
    counted: the lint half of {!analyze} alone. Never raises. *)
val lint :
  resolve:(string -> (Mg.node, string) result) ->
  gensym_base:int ->
  Mg.node ->
  lint

(** [changes ~removed ~added old_root new_root] visits the nodes of the
    old tree that the new one does not share ([removed]) and the nodes
    of the new tree the old one does not share ([added]), skipping
    physically shared subtrees and pairing children by position: work
    in proportion to an edit when the new tree was analyzed through a
    memo that held the old one. *)
val changes :
  removed:(info -> unit) ->
  added:(info -> unit) ->
  info option ->
  info option ->
  unit

(** Pre-order walk over an info tree. *)
val iter_infos : (info -> unit) -> tree -> unit

(** Verdict for one node of the {e new} tree. *)
type verdict =
  | Reused of { digest : string }
      (** an equal-digest stable subtree exists in the old tree; its
          materialization can be reused byte-for-byte *)
  | Respin of { reason : string }
      (** must be rebuilt; [reason] names the first differing
          interface fact *)

type node_verdict = {
  v_path : string;
  v_op : string;
  v_digest : string;
  v_verdict : verdict;
}

type diff = {
  d_old_digest : string;  (** old root digest *)
  d_new_digest : string;  (** new root digest *)
  d_nodes : node_verdict list;
      (** new-tree pre-order, pruned below reused nodes *)
  d_reused : int;
  d_respun : int;
  d_spine : string list;  (** paths of the respun nodes *)
}

(** Compare two analyses: old on the left, new on the right. *)
val diff : old_tree:tree -> new_tree:tree -> diff

(** Outcome of discharging the byte-identity obligation of every
    [Reused] verdict: each distinct reused digest's old and new
    subtrees are evaluated from scratch and their flattened objects
    compared byte-for-byte. *)
type verify_outcome = {
  vo_checked : int;  (** distinct reused digests compared *)
  vo_failures : (string * string) list;  (** (path, what differed) *)
}

(** [verify ~eval ~old_tree ~new_tree d] — [eval] evaluates a node in
    the caller's environment (e.g. the server's). Subtrees whose
    evaluation raises identically on both sides are vacuously ok (they
    can never have been materialized). *)
val verify :
  eval:(Mg.node -> Jigsaw.Module_ops.t) ->
  old_tree:tree ->
  new_tree:tree ->
  diff ->
  verify_outcome
