open Polyhedra
open Ir

(* Loop order aligned with the output tensor: the iterators appearing in
   the write access, in write-index order, then the remaining (reduction)
   iterators innermost. *)
let output_aligned_order (s : Stmt.t) =
  let from_write =
    List.filter_map
      (fun idx ->
        match Linexpr.vars idx with
        | [ v ] when Linexpr.equal idx (Linexpr.var v) -> Some v
        | _ -> None)
      s.Stmt.write.Access.index
  in
  let rest = List.filter (fun it -> not (List.mem it from_write)) s.Stmt.iters in
  from_write @ rest

let schedule_stmt (_k : Kernel.t) (s : Stmt.t) =
  let order = output_aligned_order s in
  let rows =
    List.map
      (fun it ->
        { Scheduling.Schedule.kind = Scheduling.Schedule.Loop { coincident = false };
          exprs = [ (s.Stmt.name, Linexpr.var it) ]
        })
      order
  in
  { Scheduling.Schedule.kernel_name = s.Stmt.name ^ "_tvm";
    stmt_names = [ s.Stmt.name ];
    rows;
    annotations = []
  }

let sub_kernel (k : Kernel.t) (s : Stmt.t) =
  let touched =
    List.sort_uniq String.compare
      (List.map (fun ((a : Access.t), _) -> a.Access.tensor) (Stmt.accesses s))
  in
  let tensors = List.filter (fun (t : Tensor.t) -> List.mem t.Tensor.name touched) k.Kernel.tensors in
  Kernel.make ~name:(k.Kernel.name ^ "_" ^ s.Stmt.name) ~tensors ~stmts:[ s ] ()

let compile (k : Kernel.t) =
  List.map
    (fun (s : Stmt.t) ->
      let sub = sub_kernel k s in
      let sched = schedule_stmt k s in
      (* Compile.lower re-derives parallel marks from the dependences of the
         single-statement kernel, then maps blocks/threads; the innermost
         output dimension becomes threadIdx.x: coalesced stores. *)
      Codegen.Compile.lower ~vectorize:false sched sub)
    k.Kernel.stmts
