(* Digest of every node's position and sorted neighbour row: a changed
   draw order, a sampler that picks a neighbouring length or a reordered
   row all move it, where the statistical tests would not notice. *)
let of_network net =
  let module Network = Ftr_core.Network in
  let b = Buffer.create 4096 in
  for i = 0 to Network.size net - 1 do
    Buffer.add_string b (string_of_int (Network.position net i));
    Buffer.add_char b ':';
    Array.iter
      (fun v ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ',')
      (Network.neighbors net i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))
