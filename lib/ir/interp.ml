open Ast

exception Interp_error of string

let error fmt = Format.kasprintf (fun s -> raise (Interp_error s)) fmt

let round_up n align = (n + align - 1) / align * align

let sequential_layout ?(base = 0) ?(align = 16) program =
  let next = ref base in
  List.map
    (fun v ->
      let addr = round_up !next align in
      next := addr + var_size_bytes v;
      (v.name, addr))
    program.vars

let address_of ~layout program name idx =
  match find_var program name with
  | None -> error "address_of: unknown variable %s" name
  | Some v ->
      if idx < 0 || idx >= v.elems then
        error "address_of: %s[%d] out of bounds (0..%d)" name idx (v.elems - 1);
      let base =
        match List.assoc_opt name layout with
        | Some b -> b
        | None -> error "address_of: %s missing from layout" name
      in
      base + (idx * v.elem_size)

(* --- Resolution ----------------------------------------------------------

   A run first resolves every name the entry procedure can reach, once:
   each memory variable becomes a [slot], each register an index into the
   register file, each [Call] the resolved body of its procedure. Executing
   the resolved tree then looks nothing up by name; an access costs a
   bounds check and one [Builder.push]. A name that does not resolve
   compiles to a [Fail] node that evaluates what the tree-walking order
   evaluated before the lookup and then raises the same error, so an
   unvalidated program fails at the same point with the same message. *)

type slot = {
  name : string;
  cells : int array;  (* the variable's current contents *)
  elems : int;
  elem_size : int;
  base : int;
  in_layout : bool;  (* [base] is meaningless when false *)
  handle : Memtrace.Packed.Builder.var;
}

type rexpr =
  | Const of int
  | Register of int
  | Scalar_of of slot
  | Load_of of slot * rexpr
  | Negate of rexpr
  | Arith of binop * rexpr * rexpr
  | Fail_expr of rexpr list * string
      (* evaluate the operands in order, then raise the message *)

type rcond = {
  relop : relop;
  left : rexpr;
  right : rexpr;
}

type rstmt =
  | Set_reg of int * rexpr
  | Set_scalar of slot * rexpr
  | Store_to of slot * rexpr * rexpr
  | Loop_for of {
      reg : int;
      lo : rexpr;
      hi : rexpr;
      body : rstmt array;
    }
  | Loop_while of rcond * rstmt array
  | Branch of rcond * rstmt array * rstmt array
  | Call_to of rproc
  | Fail_stmt of rexpr list * string

(* Mutable so that a (recursive, hence invalid) program can refer to a
   procedure whose body is still being resolved. *)
and rproc = { mutable code : rstmt array }

type state = {
  builder : Memtrace.Packed.Builder.t;
  regs : int array;
  defined : bool array;
  reg_names : string array;
  mutable gap : int;  (* ALU/control instructions since the last access *)
  mutable steps : int;
  max_steps : int;
}

let resolve program ~layout ~cells ~builder entry =
  let slots = Hashtbl.create 16 in
  let slot_of name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
        let s =
          Option.map
            (fun (v : var) ->
              let base, in_layout =
                match List.assoc_opt name layout with
                | Some b -> (b, true)
                | None -> (0, false)
              in
              {
                name;
                cells = Hashtbl.find cells name;
                elems = v.elems;
                elem_size = v.elem_size;
                base;
                in_layout;
                handle = Memtrace.Packed.Builder.var builder name;
              })
            (find_var program name)
        in
        Hashtbl.add slots name s;
        s
  in
  let regs = Hashtbl.create 16 in
  let reg_of name =
    match Hashtbl.find_opt regs name with
    | Some r -> r
    | None ->
        let r = Hashtbl.length regs in
        Hashtbl.add regs name r;
        r
  in
  let unknown_var name = Format.asprintf "unknown variable %s" name in
  let rec expr = function
    | Int n -> Const n
    | Reg name -> Register (reg_of name)
    | Scalar name -> (
        match slot_of name with
        | Some s -> Scalar_of s
        | None -> Fail_expr ([], unknown_var name))
    | Load (name, idx) -> (
        match slot_of name with
        | Some s -> Load_of (s, expr idx)
        | None -> Fail_expr ([ expr idx ], unknown_var name))
    | Unary_minus e -> Negate (expr e)
    | Binop (op, a, b) -> Arith (op, expr a, expr b)
  in
  let cond c = { relop = c.rel; left = expr c.lhs; right = expr c.rhs } in
  let procs = Hashtbl.create 8 in
  let rec stmt = function
    | Assign_reg (name, e) -> Set_reg (reg_of name, expr e)
    | Assign_scalar (name, e) -> (
        match slot_of name with
        | Some s -> Set_scalar (s, expr e)
        | None -> Fail_stmt ([ expr e ], unknown_var name))
    | Store (name, idx, e) -> (
        match slot_of name with
        | Some s -> Store_to (s, expr idx, expr e)
        | None -> Fail_stmt ([ expr idx; expr e ], unknown_var name))
    | For { reg; lo; hi; body } ->
        Loop_for { reg = reg_of reg; lo = expr lo; hi = expr hi; body = block body }
    | While { cond = c; body; _ } -> Loop_while (cond c, block body)
    | If { cond = c; then_; else_ } -> Branch (cond c, block then_, block else_)
    | Call name -> (
        match find_proc program name with
        | None -> Fail_stmt ([], Format.asprintf "unknown procedure %s" name)
        | Some pr -> Call_to (proc pr))
  and block body = Array.of_list (List.map stmt body)
  and proc pr =
    match Hashtbl.find_opt procs pr.proc_name with
    | Some p -> p
    | None ->
        let p = { code = [||] } in
        Hashtbl.add procs pr.proc_name p;
        p.code <- block pr.body;
        p
  in
  let code = block entry.body in
  let names = Array.make (Hashtbl.length regs) "" in
  Hashtbl.iter (fun name r -> names.(r) <- name) regs;
  (code, names)

(* --- Execution ---------------------------------------------------------- *)

let access st ~kind slot idx =
  if not slot.in_layout then error "%s missing from layout" slot.name;
  Memtrace.Packed.Builder.push st.builder ~kind ~var:slot.handle ~gap:st.gap
    (slot.base + (idx * slot.elem_size));
  st.gap <- 0

let out_of_bounds slot idx =
  error "%s[%d] out of bounds (0..%d)" slot.name idx (slot.elems - 1)

let alu st n = st.gap <- st.gap + n

let step st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then
    error "exceeded max_steps (%d): runaway loop?" st.max_steps

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
  | Const n -> n
  | Register r ->
      if st.defined.(r) then st.regs.(r)
      else error "uninitialized register %%%s" st.reg_names.(r)
  | Scalar_of s ->
      let value = s.cells.(0) in
      if 0 >= s.elems then out_of_bounds s 0;
      access st ~kind:Memtrace.Access.Read s 0;
      value
  | Load_of (s, idx_e) ->
      let idx = eval st idx_e in
      alu st 1;
      if idx < 0 || idx >= s.elems then out_of_bounds s idx;
      let value = s.cells.(idx) in
      access st ~kind:Memtrace.Access.Read s idx;
      value
  | Negate e ->
      let v = eval st e in
      alu st 1;
      -v
  | Arith (op, a, b) ->
      let va = eval st a in
      let vb = eval st b in
      alu st 1;
      apply_binop op va vb
  | Fail_expr (operands, msg) -> fail st operands msg

and fail : 'a. state -> rexpr list -> string -> 'a =
 fun st operands msg ->
  List.iter (fun e -> ignore (eval st e : int)) operands;
  raise (Interp_error msg)

let eval_cond st c =
  let l = eval st c.left in
  let r = eval st c.right in
  alu st 1;
  match c.relop with
  | Eq -> l = r
  | Ne -> l <> r
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r

let rec exec st stmt =
  step st;
  match stmt with
  | Set_reg (r, e) ->
      let v = eval st e in
      alu st 1;
      st.regs.(r) <- v;
      st.defined.(r) <- true
  | Set_scalar (s, e) ->
      let v = eval st e in
      s.cells.(0) <- v;
      if 0 >= s.elems then out_of_bounds s 0;
      access st ~kind:Memtrace.Access.Write s 0
  | Store_to (s, idx_e, e) ->
      let idx = eval st idx_e in
      let v = eval st e in
      alu st 1;
      if idx < 0 || idx >= s.elems then out_of_bounds s idx;
      s.cells.(idx) <- v;
      access st ~kind:Memtrace.Access.Write s idx
  | Loop_for { reg; lo; hi; body } ->
      (* [lo] before [hi]: the order the bounds' loads reach the trace *)
      let lo = eval st lo in
      let hi = eval st hi in
      let was_defined = st.defined.(reg) and saved = st.regs.(reg) in
      let i = ref lo in
      while !i < hi do
        st.regs.(reg) <- !i;
        st.defined.(reg) <- true;
        alu st 2;
        (* increment + bound test *)
        exec_block st body;
        incr i
      done;
      st.regs.(reg) <- saved;
      st.defined.(reg) <- was_defined
  | Loop_while (c, body) ->
      while
        step st;
        eval_cond st c
      do
        exec_block st body
      done
  | Branch (c, then_, else_) ->
      exec_block st (if eval_cond st c then then_ else else_)
  | Call_to p ->
      alu st 1;
      exec_block st p.code
  | Fail_stmt (operands, msg) -> fail st operands msg

and exec_block st body =
  for i = 0 to Array.length body - 1 do
    exec st body.(i)
  done

type result = {
  trace : Memtrace.Trace.t;
  memory : string -> int array;
}

let run_packed ?(init = fun _ _ -> 0) ?(max_steps = 50_000_000) program ~proc
    ~layout =
  let cells = Hashtbl.create 16 in
  List.iter
    (fun (v : var) ->
      Hashtbl.replace cells v.name (Array.init v.elems (init v.name)))
    program.vars;
  let builder = Memtrace.Packed.Builder.create () in
  (match find_proc program proc with
  | None -> error "unknown procedure %s" proc
  | Some entry ->
      let code, reg_names = resolve program ~layout ~cells ~builder entry in
      let n = Array.length reg_names in
      let st =
        {
          builder;
          regs = Array.make n 0;
          defined = Array.make n false;
          reg_names;
          gap = 0;
          steps = 0;
          max_steps;
        }
      in
      exec_block st code);
  ( Memtrace.Packed.Builder.build builder,
    fun name ->
      match Hashtbl.find_opt cells name with
      | Some a -> Array.copy a
      | None -> raise Not_found )

let run ?init ?max_steps program ~proc ~layout =
  let packed, memory = run_packed ?init ?max_steps program ~proc ~layout in
  { trace = Memtrace.Packed.to_trace packed; memory }

let trace_of ?init program ~proc ~layout =
  (run ?init program ~proc ~layout).trace

let packed_trace_of ?init ?max_steps program ~proc ~layout =
  fst (run_packed ?init ?max_steps program ~proc ~layout)
