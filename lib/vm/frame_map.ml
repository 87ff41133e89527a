type t = {
  page_size : int;
  page_to_frame : (int, int) Hashtbl.t;
  frame_to_page : (int, int) Hashtbl.t;
  mutable bytes_copied : int;
}

let create ~page_size =
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Frame_map.create: page_size must be a power of two";
  {
    page_size;
    page_to_frame = Hashtbl.create 64;
    frame_to_page = Hashtbl.create 64;
    bytes_copied = 0;
  }

let page_size t = t.page_size

(* Allocation-free (no [find_opt] [Some]) and exception-free (a raise costs
   more than a second probe). *)
let frame_of t page =
  if Hashtbl.mem t.page_to_frame page then Hashtbl.find t.page_to_frame page
  else page

let translate t addr =
  let page = addr / t.page_size in
  (frame_of t page * t.page_size) + (addr mod t.page_size)

(* Collisions are only tracked among explicitly-placed pages: the page
   allocator (Layout.Page_coloring) places every page it manages in a frame
   arena disjoint from the identity range, so implicit identity frames never
   collide with it. *)
let place ?(copy = false) t ~page ~frame =
  if page < 0 || frame < 0 then invalid_arg "Frame_map: negative page or frame";
  (match Hashtbl.find_opt t.frame_to_page frame with
  | Some p when p <> page ->
      invalid_arg
        (Printf.sprintf "Frame_map: frame %d already holds page %d" frame p)
  | Some _ | None -> ());
  (* release the old frame *)
  (match Hashtbl.find_opt t.page_to_frame page with
  | Some old -> Hashtbl.remove t.frame_to_page old
  | None -> ());
  Hashtbl.replace t.page_to_frame page frame;
  Hashtbl.replace t.frame_to_page frame page;
  if copy then t.bytes_copied <- t.bytes_copied + t.page_size

let map_page t ~page ~frame = place ~copy:false t ~page ~frame
let remap_page t ~page ~frame = place ~copy:true t ~page ~frame
let bytes_copied t = t.bytes_copied

let mapped_pages t =
  Hashtbl.fold (fun page frame acc -> (page, frame) :: acc) t.page_to_frame []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
