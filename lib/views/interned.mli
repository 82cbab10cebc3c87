(** Hash-consed (interned) local-view trees, stored in a flat arena.

    A depth-[d] view of a dense graph unfolds to a tree with up to [Δ^d]
    vertices, but has at most [n] {e distinct} subtrees per level (one per
    view-equivalence class, Section 2.1).  This module interns view nodes in
    a process-wide hash-cons arena: structurally equal trees receive the
    same integer handle, so

    - {!equal} and {!hash} are O(1) (handle comparison),
    - {!compare} is the canonical structural order of {!View.compare},
      memoized over handle pairs (amortized O(1) on repeated comparisons),
    - {!size} and {!depth} are O(1) (stored per node at construction),

    and every algorithm that walks views — sorting truncations, counting
    tree vertices, the [(size, encoding)] candidate order — runs in the size
    of the shared DAG instead of the unfolded tree.

    {2 Representation}

    A value of type {!t} is the node's arena handle; marks, sizes, depths
    and child lists live in flat per-shard column arrays (marks, sizes,
    depths, child offsets into one concatenated child-handle array).  There
    is no box per view node: the store is a handful of arrays the GC scans
    as units, and the child walks of {!compare}/{!subtrees} run directly
    over the flat columns.

    {2 Domain safety}

    The intern table is split into key-hash shards, each guarded by its own
    mutex (interning is a pure function cache, so sharing it across
    simulated nodes and domains leaks no information between them).
    Handles are process-global — equal structures hash to the same shard
    and receive the same handle no matter which domain interns them first —
    so construction under [Anonet_parallel.Pool] is safe: two domains
    interning the same structure race only for who inserts first; both
    receive the unique representative.  Reads (accessors, {!compare},
    {!truncate}) never take a lock: each shard publishes its column arrays
    through an [Atomic.t] snapshot, and the {!compare}/{!truncate} memo
    tables are {e per-domain} ([Domain.DLS]).

    Invalidation: none.  Interned nodes are pure values; the arena only
    grows (it implements a function cache keyed by handles that are never
    reused), and lives for the process.  See DESIGN.md, "Memory layout &
    scratch arenas". *)

type t
(** An arena handle.  Equal trees have equal handles. *)

(** [leaf mark] is the depth-1 view with the given mark. *)
val leaf : Anonet_graph.Label.t -> t

(** [node mark children] interns an internal vertex, canonicalizing the
    sibling order under {!compare}. *)
val node : Anonet_graph.Label.t -> t list -> t

(** O(1): interning makes structural equality a handle comparison. *)
val equal : t -> t -> bool

(** The canonical total order of {!View.compare} — root marks first, then
    child lists lexicographically — decided via handles and a per-domain
    memo table.  [compare a b = 0] iff [equal a b]. *)
val compare : t -> t -> int

(** [id t] is the interning identity: equal trees have equal ids. *)
val id : t -> int

(** [mark t] is the root mark. *)
val mark : t -> Anonet_graph.Label.t

(** [children t] lists the sub-views, sorted under {!compare}. *)
val children : t -> t list

(** [size t] is the vertex count of the unfolded tree, O(1) (saturating at
    [max_int] for astronomically deep views). *)
val size : t -> int

(** [depth t] is the number of levels (a leaf has depth 1), O(1). *)
val depth : t -> int

(** [of_graph g ~root ~depth] is [L_depth(root, g)] interned — the same
    object {!View.of_graph} describes, built level by level in
    O(n·depth·Δ) interning steps.
    @raise Invalid_argument if [depth < 1]. *)
val of_graph : Anonet_graph.Graph.t -> root:int -> depth:int -> t

(** [truncate t ~depth] prunes to the given depth (memoized per domain);
    [t] itself when [depth >= depth t].
    @raise Invalid_argument if [depth < 1]. *)
val truncate : t -> depth:int -> t

(** [subtrees t] lists every distinct subtree occurring in [t] (including
    [t] itself), each once. *)
val subtrees : t -> t list

(** {2 Serialization}

    [A*]'s nodes gather and exchange their local views as interned trees
    (the full-information "knowledge" of the paper).  Trees serialize to
    {!Anonet_graph.Label.t} values as minimal DAGs, so exchanging a view
    costs messages polynomial in [n·p], not exponential. *)

(** [to_label t] serializes [t] as a minimal-DAG label: entries listed
    children-first, each a pair of the mark and the indices of its
    children among earlier entries, the root last.  [of_label] inverts it.

    Both directions are cached per domain: [to_label] memoizes on the
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
  nodes : int;  (** current intern-arena population *)
}

(** Process-lifetime totals for the intern arena. *)
val stats : unit -> stats

(** [publish_metrics obs] records the interning totals ({!stats}) in
    [obs]'s metrics registry: counters [cache.view.hits] and
    [cache.view.misses], gauge [cache.view.nodes].  The counters carry
    process-lifetime totals — call this once per registry, just before
    taking its snapshot (the CLI metrics trailer and [bench-json] do exactly
    that).  A no-op on {!Anonet_obs.Obs.null}. *)
val publish_metrics : Anonet_obs.Obs.t -> unit
