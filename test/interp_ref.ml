(* The reference for Ir.Interp: the tree-walking interpreter the library
   ran before it resolved names ahead of execution, kept as it was. Every
   lookup happens by name at the point of use, so the order of evaluation,
   emission and errors is plain to read; test_interp.ml requires the
   library's interpreter to produce the same trace, the same final memory
   and the same error message on every program. *)

open Ir.Ast

exception Interp_error of string

let error fmt = Format.kasprintf (fun s -> raise (Interp_error s)) fmt

type state = {
  program : program;
  layout : (string * int) list;
  cells : (string, int array) Hashtbl.t;
  regs : (string, int) Hashtbl.t;
  builder : Memtrace.Packed.Builder.t;
  mutable gap : int;  (* ALU/control instructions since the last access *)
  mutable steps : int;
  max_steps : int;
}

let emit st ~kind ~var addr =
  Memtrace.Packed.Builder.emit st.builder ~kind ~var ~gap:st.gap addr;
  st.gap <- 0

let alu st n = st.gap <- st.gap + n

let step st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then
    error "exceeded max_steps (%d): runaway loop?" st.max_steps

let var_of st name =
  match find_var st.program name with
  | Some v -> v
  | None -> error "unknown variable %s" name

let cells_of st name =
  match Hashtbl.find_opt st.cells name with
  | Some a -> a
  | None -> error "unknown variable %s" name

let addr_of st name idx =
  let v = var_of st name in
  if idx < 0 || idx >= v.elems then
    error "%s[%d] out of bounds (0..%d)" name idx (v.elems - 1);
  match List.assoc_opt name st.layout with
  | Some base -> base + (idx * v.elem_size)
  | None -> error "%s missing from layout" name

let apply_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then error "division by zero" else a / b
  | Mod -> if b = 0 then error "modulo by zero" else a mod b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Band -> a land b
  | Bor -> a lor b
  | Bxor -> a lxor b
  | Min -> min a b
  | Max -> max a b

let rec eval st = function
  | Int n -> n
  | Reg name -> (
      match Hashtbl.find_opt st.regs name with
      | Some v -> v
      | None -> error "uninitialized register %%%s" name)
  | Scalar name ->
      let value = (cells_of st name).(0) in
      emit st ~kind:Memtrace.Access.Read ~var:name (addr_of st name 0);
      value
  | Load (name, idx_e) ->
      let idx = eval st idx_e in
      alu st 1;
      let v = var_of st name in
      if idx < 0 || idx >= v.elems then
        error "%s[%d] out of bounds (0..%d)" name idx (v.elems - 1);
      let value = (cells_of st name).(idx) in
      emit st ~kind:Memtrace.Access.Read ~var:name (addr_of st name idx);
      value
  | Unary_minus e ->
      let v = eval st e in
      alu st 1;
      -v
  | Binop (op, a, b) ->
      let va = eval st a in
      let vb = eval st b in
      alu st 1;
      apply_binop op va vb

let eval_cond st c =
  let l = eval st c.lhs in
  let r = eval st c.rhs in
  alu st 1;
  match c.rel with
  | Eq -> l = r
  | Ne -> l <> r
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r

let rec exec st stmt =
  step st;
  match stmt with
  | Assign_reg (name, e) ->
      let v = eval st e in
      alu st 1;
      Hashtbl.replace st.regs name v
  | Assign_scalar (name, e) ->
      let v = eval st e in
      (cells_of st name).(0) <- v;
      emit st ~kind:Memtrace.Access.Write ~var:name (addr_of st name 0)
  | Store (name, idx_e, e) ->
      let idx = eval st idx_e in
      let v = eval st e in
      alu st 1;
      let cells = cells_of st name in
      let var = var_of st name in
      if idx < 0 || idx >= var.elems then
        error "%s[%d] out of bounds (0..%d)" name idx (var.elems - 1);
      cells.(idx) <- v;
      emit st ~kind:Memtrace.Access.Write ~var:name (addr_of st name idx)
  | For { reg; lo; hi; body } ->
      let lo = eval st lo and hi = eval st hi in
      let saved = Hashtbl.find_opt st.regs reg in
      let rec loop i =
        if i < hi then begin
          Hashtbl.replace st.regs reg i;
          alu st 2;
          (* increment + bound test *)
          List.iter (exec st) body;
          loop (i + 1)
        end
      in
      loop lo;
      (match saved with
      | Some v -> Hashtbl.replace st.regs reg v
      | None -> Hashtbl.remove st.regs reg)
  | While { cond; body; _ } ->
      let rec loop () =
        step st;
        if eval_cond st cond then begin
          List.iter (exec st) body;
          loop ()
        end
      in
      loop ()
  | If { cond; then_; else_ } ->
      if eval_cond st cond then List.iter (exec st) then_
      else List.iter (exec st) else_
  | Call name -> (
      match find_proc st.program name with
      | None -> error "unknown procedure %s" name
      | Some pr ->
          alu st 1;
          List.iter (exec st) pr.body)

let run_packed ?(init = fun _ _ -> 0) ?(max_steps = 50_000_000) program ~proc
    ~layout =
  let cells = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace cells v.name (Array.init v.elems (init v.name)))
    program.vars;
  let st =
    {
      program;
      layout;
      cells;
      regs = Hashtbl.create 16;
      builder = Memtrace.Packed.Builder.create ();
      gap = 0;
      steps = 0;
      max_steps;
    }
  in
  (match find_proc program proc with
  | None -> error "unknown procedure %s" proc
  | Some pr -> List.iter (exec st) pr.body);
  ( Memtrace.Packed.Builder.build st.builder,
    fun name ->
      match Hashtbl.find_opt cells name with
      | Some a -> Array.copy a
      | None -> raise Not_found )
