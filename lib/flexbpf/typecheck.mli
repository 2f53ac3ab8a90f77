(** Well-formedness checking for FlexBPF programs.

    Every name must resolve (headers, fields, maps, actions), map
    accesses must match the declared key arity, action parameters must
    be declared, and loop bounds must be positive and below the
    target-independent ceiling. Rules are checked separately against
    their table at install time. *)

type error = { where : string; what : string }

val pp_error : Format.formatter -> error -> unit

(** Upper bound on [Loop] counts. *)
val max_loop_bound : int

(** Check a whole program; returns every error rather than failing
    fast. *)
val check_program : Ast.program -> (unit, error list) result

(** {2 Per-item checks}

    [check_program] is these checks over every item plus the
    duplicate-name checks; [Patch.apply] runs them on the items a patch
    changes. Each returns the item's errors, [[]] when it is well
    formed. *)

(** An element against the program that holds it. *)
val check_element : Ast.program -> Ast.element -> error list

(** A map declaration's size and key arity. *)
val check_map_decl : Ast.map_decl -> error list

(** A parser rule's header references. *)
val check_parser_rule : Ast.program -> Ast.parser_rule -> error list

(** A header's duplicate fields. *)
val check_header : Ast.header_decl -> error list

(** Validate a rule against its table at install time: pattern count
    and kinds must match the keys, the action must exist with the right
    arity. *)
val check_rule : Ast.table -> Ast.rule -> (unit, error list) result
