module Range = Pift_util.Range

type access = Load of Range.t | Store of Range.t | Other
type t = { seq : int; k : int; pid : int; access : access }

let is_load e = match e.access with Load _ -> true | Store _ | Other -> false
let is_store e = match e.access with Store _ -> true | Load _ | Other -> false

let range e =
  match e.access with Load r | Store r -> Some r | Other -> None
