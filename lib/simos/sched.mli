(** A deterministic cooperative run queue for the server's staged
    request pipeline.

    Tasks are plain thunks; {!step} runs one to completion on the
    caller's (simulated) time line — there is no preemption and no
    wall-clock anywhere, so a run is exactly as deterministic as the
    tasks themselves. A task that wants to continue later simply
    {!spawn}s its continuation. The queue knows nothing about what a
    task is: the server stamps, labels and times its own stages, and
    runs its place barrier when {!step} finds nothing to run.

    Two orders are available:

    - seed [0] (the default): strict FIFO — tasks run in spawn order.
    - seed [<> 0]: a seeded xorshift32 picks among the ready tasks, so
      tests can exercise interleavings other than submission order
      while staying byte-reproducible for a given seed. *)

type t

(** [create ?seed ()] makes an empty scheduler. [seed = 0] (default)
    means FIFO order; any other seed shuffles deterministically. *)
val create : ?seed:int -> unit -> t

(** Reseed an existing scheduler (takes effect from the next pick). *)
val set_seed : t -> int -> unit

(** Enqueue a task. *)
val spawn : t -> (unit -> unit) -> unit

(** Run one ready task. Returns [false] when nothing ran — the queue
    is empty. *)
val step : t -> bool

(** Is a {!step} currently executing a task? *)
val running : t -> bool
