;; The same in tail position of a procedure body, three marks deep:
;; each value expression reads the marks the enclosing ones installed.
(define (f n)
  (with-continuation-mark 'kc n
    (with-continuation-mark 'kb (mark-first 'kc 0)
      (with-continuation-mark 'ka (+ (mark-first 'kb 0) (mark-first 'kc 0))
        (cons (mark-list 'ka) (cons (mark-list 'kb) (mark-list 'kc)))))))
(f 7)
