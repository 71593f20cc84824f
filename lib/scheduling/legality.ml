open Polybase
open Polyhedra

let check (sched : Schedule.t) kernel deps =
  let check_dep (dep : Deps.Dependence.t) =
    let ds = Builders.init_dep_state kernel dep in
    let rec go rows rel dim =
      if Polyhedron.is_empty rel then Ok ()
      else
        match rows with
        | [] ->
          Error
            (Printf.sprintf "dependence never strongly satisfied: %s"
               (Deps.Dependence.to_string dep))
        | (row : Schedule.row) :: rest -> (
          let src_expr = List.assoc dep.source row.exprs in
          let tgt_expr = List.assoc dep.target row.exprs in
          let delta = Builders.delta_concrete ds ~src_expr ~tgt_expr in
          match Polyhedron.minimum rel delta with
          | `Empty -> Ok ()
          | `Unbounded ->
            Error
              (Printf.sprintf "dimension %d unbounded on %s" dim
                 (Deps.Dependence.to_string dep))
          | `Value v ->
            if Q.sign v < 0 then
              Error
                (Printf.sprintf
                   "dimension %d schedules a target before its source (min delta %s): %s"
                   dim (Q.to_string v) (Deps.Dependence.to_string dep))
            else go rest (Polyhedron.add_constraint rel (Constr.eq0 delta)) (dim + 1))
    in
    go sched.Schedule.rows dep.rel 0
  in
  let rec first_error = function
    | [] -> Ok ()
    | dep :: rest -> (
      match check_dep dep with Ok () -> first_error rest | Error e -> Error e)
  in
  first_error deps

let is_legal sched kernel deps = check sched kernel deps = Ok ()
