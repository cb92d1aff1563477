;; A mark's value expression runs before the mark is installed, so it
;; sees the enclosing frame's marks, even when the inner mark replaces
;; the outer one's frame (inner wcm in tail position of the outer body).
(+ 1 (with-continuation-mark 'kc 7
       (with-continuation-mark 'kb (mark-first 'kc 0)
         (mark-first 'kb 0))))
