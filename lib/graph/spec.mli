(** Compact textual graph specs, e.g. [cycle:6], [petersen],
    [random:10,0.3,7], [gnp:1000000,8,1], [grid:3x4], [file:PATH].  One
    grammar shared by every frontend — the CLI subcommands and the wire
    layer's job specs parse through this module, so a graph description
    means the same thing locally and over a socket.  [gnp:n,avgdeg,seed]
    is connected G(n, p) parameterized by average degree rather than p —
    the natural knob for huge sparse ensembles. *)

(** [graph spec] builds the described graph.
    @raise Failure on an unknown or malformed spec, including arguments a
    generator rejects ([cycle:2], [regular:5,3,1]), non-numeric arguments
    ([cycle:x], [gnp:10,x,1]) and a [file:] whose contents do not parse. *)
val graph : string -> Graph.t
