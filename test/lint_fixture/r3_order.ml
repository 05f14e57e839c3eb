(* R3 fixture in a compiled unit. [print_counts] walks a Hashtbl straight
   into stdout, so its output order follows the hash seed and insertion
   history (one positive). No flow rule covers iteration order, so the
   syntactic finding must survive a run that also has the flow stage —
   unlike R4, which D1 supersedes on flow-covered units. *)

let print_counts (counts : (string, int) Hashtbl.t) =
  Hashtbl.iter (fun k v -> print_string (k ^ "=" ^ string_of_int v ^ "\n")) counts
