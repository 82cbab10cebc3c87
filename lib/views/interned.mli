(** Depth-[d] local views [L_d(v, G)] (Section 1.1, Figure 1), hash-consed
    (interned) in a flat arena.

    The depth-d local view of node [v] is a rooted tree: [L_1(v)] is a
    single vertex marked with [v]'s label, and [L_{d+1}(v)] attaches the
    root of [L_d(u)] as a child for every neighbor [u] of [v].  The view
    captures everything a deterministic anonymous algorithm at [v] can
    learn in [d - 1] communication rounds.  Views here are {e canonical}:
    the children of every vertex are sorted under {!compare}.  On 2-hop
    colored graphs siblings carry distinct marks (Section 2.1), so the
    sorted form is a faithful canonical representation; on arbitrary
    graphs it canonicalizes the sibling multiset, which is exactly the
    information an anonymous (port-oblivious) observer has.

    A depth-[d] view of a dense graph unfolds to a tree with up to [Δ^d]
    vertices, but has at most [n] {e distinct} subtrees per level (one per
    view-equivalence class, Section 2.1).  This module interns view nodes in
    a hash-cons arena: structurally equal trees receive the same integer
    handle, so

    - {!equal} is O(1) (handle comparison),
    - {!compare} is the canonical structural order, memoized over handle
      pairs (amortized O(1) on repeated comparisons),
    - {!size} and {!depth} are O(1) (stored per node at construction),

    and every algorithm that walks views — sorting truncations, counting
    tree vertices, the [(size, encoding)] candidate order — runs in the size
    of the shared DAG instead of the unfolded tree.

    {2 Representation}

    A value of type {!t} is the node's slot in the arena; marks, sizes,
    depths and child lists live in flat column arrays (marks, sizes,
    depths, child offsets into one concatenated child-handle array).  There
    is no box per view node: the store is a handful of arrays the GC scans
    as units, and the child walks of {!compare}/{!subtrees} run directly
    over the flat columns.

    {2 Arenas}

    An arena holds the intern table, the columns and the
    {!compare}/{!truncate}/{!to_label}/{!of_label} memos.  Every function
    here works in the calling domain's {e current} arena, reached through
    one [Domain.DLS] slot.  {!with_arena} installs a fresh one for the
    extent of a computation: [Runner.execute] runs each job in its own, and
    the experiment fan-out gives each row its own, so a job's views are
    freed when it ends and no job sees another's interning history.  Code
    outside any job (tests, benchmarks, examples, the CLI's [views] and
    [factor]) uses the domain's default arena, which lives as long as the
    domain.

    Handles are meaningful only in the arena that made them: passing one
    to another domain, or keeping one past its arena's {!with_arena}, reads
    some other node or fails with [Invalid_argument].  Results that leave
    an arena must be plain values: strings (such as {!to_string}) or
    {!to_label} labels.

    {e Thread rule.}  The slot is per domain, not per thread: at most one
    thread per domain may be inside a job (or otherwise intern) at a time.
    [anonet serve] keeps it — only its worker loops call [Runner.execute],
    one per domain, and its reader, writer and accept threads never
    intern.

    Nothing here takes a lock: an arena is never shared between domains. *)

type t
(** An arena handle.  Equal trees in one arena have equal handles. *)

(** [with_arena f] runs [f] with a fresh, empty arena as the calling
    domain's current one, and restores the previous arena when [f] returns
    or raises.  The fresh arena is garbage once [f] is done; no handle made
    inside may be used outside. *)
val with_arena : (unit -> 'a) -> 'a

(** [leaf mark] is the depth-1 view with the given mark. *)
val leaf : Anonet_graph.Label.t -> t

(** [node mark children] interns an internal vertex, canonicalizing the
    sibling order under {!compare}. *)
val node : Anonet_graph.Label.t -> t list -> t

(** O(1): interning makes structural equality a handle comparison. *)
val equal : t -> t -> bool

(** The canonical total order — the "level by level" order of Section 2.1
    realized structurally: root marks first, then the sorted child lists
    lexicographically — decided via handles and the arena's
    memo table.  [compare a b = 0] iff [equal a b]. *)
val compare : t -> t -> int

(** [id t] is the interning identity: equal trees have equal ids. *)
val id : t -> int

(** [of_id i] is the view of the current arena whose {!id} is [i]: within
    one arena an id names exactly one view, so an id can stand for the
    view it names (A*'s flat knowledge messages are ids).
    @raise Invalid_argument if the current arena has no view [i]. *)
val of_id : int -> t

(** [mark t] is the root mark. *)
val mark : t -> Anonet_graph.Label.t

(** [children t] lists the sub-views, sorted under {!compare}. *)
val children : t -> t list

(** [size t] is the vertex count of the unfolded tree, O(1) (saturating at
    [max_int] for astronomically deep views). *)
val size : t -> int

(** [depth t] is the number of levels (a leaf has depth 1), O(1). *)
val depth : t -> int

(** [of_graph g ~root ~depth] is [L_depth(root, g)], built level by level
    in O(n·depth·Δ) interning steps however large the unfolded tree is.
    @raise Invalid_argument if [depth < 1]. *)
val of_graph : Anonet_graph.Graph.t -> root:int -> depth:int -> t

(** [truncate t ~depth] prunes to the given depth — the depth-n
    truncating function [f_n] of Section 3 (memoized per arena);
    [t] itself when [depth >= depth t].
    @raise Invalid_argument if [depth < 1]. *)
val truncate : t -> depth:int -> t

(** [subtrees t] lists every distinct subtree occurring in [t] (including
    [t] itself), each once. *)
val subtrees : t -> t list

(** [to_string t] renders the unfolded tree in ASCII, one vertex per line,
    root first, children in canonical order (Figure 1). *)
val to_string : t -> string

(** {2 Serialization}

    [A*]'s nodes gather and exchange their local views as interned trees
    (the full-information "knowledge" of the paper).  A hook-free run
    sends {!id}s, which name views only inside the run's arena; a run
    under faults or an adversary, which act on [Label.t] payloads, sends
    trees serialized to {!Anonet_graph.Label.t} values as minimal DAGs,
    so exchanging a view costs messages polynomial in [n·p], not
    exponential. *)

(** [to_label t] serializes [t] as a minimal-DAG label: entries listed
    children-first, each a pair of the mark and the indices of its
    children among earlier entries, the root last.  [of_label] inverts it.

    Both directions are cached per arena: [to_label] memoizes on the
    handle (so re-broadcasting the same view re-uses one label value,
    physically), and [of_label] keeps an identity-keyed cache — receivers
    that are handed the {e same} label value (the common case under the
    memoized [to_label]) skip the decode entirely.  Both caches are pure
    function caches; results are identical with or without them.
    @raise Invalid_argument on malformed input. *)
val to_label : t -> Anonet_graph.Label.t

val of_label : Anonet_graph.Label.t -> t

(** {2 Cache statistics} *)

type stats = {
  hits : int;  (** interning requests answered by an existing node *)
  misses : int;  (** interning requests that allocated a new node *)
  nodes : int;  (** the calling domain's current arena population *)
}

(** [hits] and [misses] are process totals over every arena and domain,
    so a caller can difference them around a job whose arena is gone by
    the time it looks; [nodes] is the population of the calling domain's
    current arena. *)
val stats : unit -> stats

(** [publish_metrics obs] records {!stats} in [obs]'s metrics registry:
    counters [cache.view.hits] and [cache.view.misses] (process totals —
    call this once per registry, just before taking its snapshot, as the
    CLI metrics trailer and [bench-json] do), gauge [cache.view.nodes] (the
    calling domain's current arena: after a CLI job it reads the default
    arena, since the job's own is dropped).  A no-op on
    {!Anonet_obs.Obs.null}. *)
val publish_metrics : Anonet_obs.Obs.t -> unit
